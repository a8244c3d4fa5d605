"""Brute-force oracle: Schrodinger evolution on a uniform spatial grid.

Harmonic evolution for a time t is a rotation of phase space. One sweep (a
position chirp, a momentum chirp between an FFT pair, the same position
chirp) is its three-shear factorisation (Ozaktas et al., IEEE TSP 44, 1996;
Paeth 1986): with exact shears one sweep, two above a quarter turn, evolves
for t; with small-angle shears a sweep is one Strang split-operator step,
the step-by-step route taken when a time step is given. Nothing in here
knows the closed-form width evolution; the point is to validate those
formulas and the chain construction from first principles.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain_analytics import ChainConfig, povm_parameters
from .errors import DomainError, GridTooCoarse, GridTooSmall, LeakageError
from .gaussian_core import Gaussian, OscillatorParams, WavePacket
from .trajectory_sim import MeasurementRecord

DEFAULT_N_POINTS = 4096
DEFAULT_STEPS_PER_PERIOD = 1024
LEAKAGE_THRESHOLD = 1e-6
BOUNDARY_FRACTION = 0.05


class CollapseMode(enum.Enum):
    REPLACE = "replace"       # substitute a fresh narrow Gaussian at x_M
    WEAK_PRODUCT = "weak"     # multiply by a Gaussian window, renormalize


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [x_min, x_max): n_points must be a power of two."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n_points < 256 or self.n_points & (self.n_points - 1):
            raise ValueError("n_points must be a power of two >= 256")

    @classmethod
    def symmetric(cls, half_extent: float, n_points: int = DEFAULT_N_POINTS) -> "Grid":
        return cls(-half_extent, half_extent, n_points)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @cached_property
    def k(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, self.dx)


@dataclass
class GridWavefunction:
    grid: Grid
    psi: np.ndarray

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dx)

    def density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2

    def renormalized(self) -> "GridWavefunction":
        return GridWavefunction(self.grid, self.psi / math.sqrt(self.norm()))

    def position_mean(self) -> float:
        return float(np.sum(self.grid.x * self.density()) * self.grid.dx)

    def position_std(self) -> float:
        mu = self.position_mean()
        var = float(np.sum((self.grid.x - mu) ** 2 * self.density()) * self.grid.dx)
        return math.sqrt(var)

    def boundary_probability(self) -> float:
        """Probability mass in the outer BOUNDARY_FRACTION of the grid (each side)."""
        n_edge = max(1, int(BOUNDARY_FRACTION * self.grid.n_points))
        d = self.density() * self.grid.dx
        return float(d[:n_edge].sum() + d[-n_edge:].sum())


def init_packet(grid: Grid, packet: WavePacket) -> GridWavefunction:
    """Discretize a Gaussian packet (density std = sigma_x0) on the grid."""
    if abs(packet.x0) + 8.0 * packet.sigma_x0 >= grid.x_max:
        raise GridTooSmall(
            f"packet at x0={packet.x0} with sigma={packet.sigma_x0} does not fit "
            f"inside extent {grid.x_max}"
        )
    if packet.sigma_x0 <= 4.0 * grid.dx:
        raise GridTooCoarse(
            f"sigma_x0={packet.sigma_x0} needs dx < sigma/4, have dx={grid.dx:.4g}"
        )
    psi = np.exp(-((grid.x - packet.x0) ** 2) / (4.0 * packet.sigma_x0**2)).astype(complex)
    return GridWavefunction(grid, psi).renormalized()


@functools.lru_cache(maxsize=16)
def _sweep(
    grid: Grid, t: float, params: OscillatorParams, dt: float | None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Position chirp cx, momentum chirp ck and the number of sweeps of
    cx ifft(ck fft(cx psi)) that make U(t). A sweep rotates phase space by
    theta with shears s_x and s_k. Without dt it is exact up to a global
    phase: theta = omega t mod 2 pi (densities are T-periodic), halved above
    pi/2 so s_x = tan(theta/2) stays at most 1, and s_k = sin(theta). With dt
    it is one Strang step: theta = omega t / round(|t|/dt), which hits t
    exactly, with the small-angle shears s_x = theta/2 and s_k = theta."""
    if dt is None:
        theta = math.remainder(params.omega * t, 2.0 * math.pi)
        sweeps = 2 if abs(theta) > 0.5 * math.pi else 1
        theta /= sweeps
        s_x, s_k = math.tan(0.5 * theta), math.sin(theta)
    else:
        sweeps = max(1, round(abs(t) / dt))
        theta = params.omega * t / sweeps
        s_x, s_k = 0.5 * theta, theta
    m_omega = params.mass * params.omega
    cx = np.exp(-0.5j * m_omega * s_x / params.hbar * grid.x**2)
    ck = np.exp(-0.5j * params.hbar * s_k / m_omega * grid.k**2)
    cx.flags.writeable = False
    ck.flags.writeable = False
    return cx, ck, sweeps


def evolve(
    psi: GridWavefunction,
    t: float,
    params: OscillatorParams,
    dt: float | None = None,
) -> GridWavefunction:
    """Propagate under V = (1/2) m omega^2 x^2 for time t by chirp sweeps
    (see _sweep): exact without dt, Strang steps of about dt with it. psi.psi
    may be a stack of rows: each row gets the bits of its own evolve."""
    if t == 0.0:
        return GridWavefunction(psi.grid, psi.psi.copy())
    cx, ck, sweeps = _sweep(psi.grid, t, params, dt)
    # one new array, swept in place: psi is left as it was, and each chirp
    # stays the first operand, so the bits equal cx * ifft(ck * fft(cx * psi))
    out = np.multiply(cx, psi.psi)
    for sweep in range(sweeps):
        if sweep:
            np.multiply(cx, out, out=out)
        np.fft.fft(out, out=out)
        np.multiply(ck, out, out=out)
        np.fft.ifft(out, out=out)
        np.multiply(cx, out, out=out)
    return GridWavefunction(psi.grid, out)


def _sample_from_density(wf: GridWavefunction, rng: np.random.Generator) -> float:
    """Inverse-CDF draw from the discrete |psi|^2, linear within bins; bin j
    is centred on its node, [x_j - dx/2, x_j + dx/2)."""
    grid = wf.grid
    p = wf.density() * grid.dx
    p = p / p.sum()
    cum = np.cumsum(p)
    u = rng.random()
    j = int(np.searchsorted(cum, u))
    j = min(j, grid.n_points - 1)
    prev = cum[j - 1] if j > 0 else 0.0
    frac = (u - prev) / p[j] if p[j] > 0 else 0.5
    return float(grid.x[j] + grid.dx * (frac - 0.5))


def apply_collapse(
    psi: GridWavefunction,
    sigma_M: float,
    x_M: float,
    mode: CollapseMode,
) -> GridWavefunction:
    """Post-measurement state for outcome x_M under the chosen collapse rule."""
    grid = psi.grid
    if mode is CollapseMode.REPLACE:
        return init_packet(grid, WavePacket(x0=x_M, sigma_x0=sigma_M))
    # weak product: window chosen so a Gaussian prior would collapse exactly
    # to N(x_M, sigma_M^2); the prior's phase is kept (physical back-action)
    prior = Gaussian(mean=psi.position_mean(), std=psi.position_std())
    sigma_W, x_W = povm_parameters(sigma_M, x_M, prior)
    window = np.exp(-((grid.x - x_W) ** 2) / (4.0 * sigma_W**2))
    return GridWavefunction(grid, psi.psi * window).renormalized()


def measure_and_collapse(
    psi: GridWavefunction,
    sigma_M: float,
    mode: CollapseMode,
    rng: np.random.Generator,
) -> tuple[float, GridWavefunction]:
    """Draw an outcome from |psi|^2 and apply the post-measurement update."""
    if sigma_M <= 4.0 * psi.grid.dx:
        raise GridTooCoarse(
            f"sigma_M={sigma_M} needs dx < sigma_M/4, have dx={psi.grid.dx:.4g}"
        )
    x_M = _sample_from_density(psi, rng)
    return x_M, apply_collapse(psi, sigma_M, x_M, mode)


def default_grid_for(cfg: ChainConfig, n_points: int = DEFAULT_N_POINTS) -> Grid:
    """Extent +-max(12 sigma_inf_predicted, 12 sigma_gs)."""
    return Grid.symmetric(12.0 * max(cfg.params.sigma_gs, cfg.closed_form.sigma_inf or 0.0), n_points)


def _refuse_unresolved(cfg: ChainConfig, grid: Grid, mode: CollapseMode) -> None:
    """A weak collapse needs a prior wider than sigma_M, which the first one,
    the evolved initial packet, may not be. The default grid spans +-12
    max(sigma_inf, sigma_gs) on a fixed number of points; a large sigma_inf
    or a tiny width leaves its spacing too coarse for the instrument or the
    initial packet, and a wide or far-off packet (the initial one, or a
    replacement of width sigma_M) overruns its extent."""
    sigma_M, cf = cfg.scheme.sigma_M, cfg.closed_form
    if mode is CollapseMode.WEAK_PRODUCT and cf.sigma_first <= sigma_M:
        raise DomainError(
            f"weak collapse needs the evolved initial packet wider than the instrument, "
            f"but sigma_first={cf.sigma_first:.4g} <= sigma_M={sigma_M:.4g}"
        )
    limit = "none at resonance" if cf.sigma_inf is None else f"{cf.sigma_inf:.4g}"
    spans = (
        f"the default grid spans +-12 max(sigma_inf, sigma_gs) = +-{grid.x_max:.4g} "
        f"(sigma_inf={limit})"
    )
    widths = {"sigma_M": sigma_M, "sigma_x0": cfg.initial.sigma_x0}
    unresolved = [f"{name}={w:.4g}" for name, w in widths.items() if w <= 4.0 * grid.dx]
    if unresolved:
        raise DomainError(
            f"{spans} on {grid.n_points} points, so dx={grid.dx:.4g} cannot resolve "
            f"{' or '.join(unresolved)} (needs dx < width/4)"
        )
    reaches = {"|x0| + 8 sigma_x0": abs(cfg.initial.x0) + 8.0 * cfg.initial.sigma_x0}
    if mode is CollapseMode.REPLACE:
        reaches["8 sigma_M"] = 8.0 * sigma_M
    overrun = [f"{name}={r:.4g}" for name, r in reaches.items() if r >= grid.x_max]
    if overrun:
        raise DomainError(f"{spans} cannot hold {' or '.join(overrun)} (needs less than the extent)")


def run_chain_grid(
    cfg: ChainConfig,
    mode: CollapseMode = CollapseMode.REPLACE,
    dt: float | None = None,
) -> MeasurementRecord:
    """Full measurement chain driven by grid dynamics on default_grid_for(cfg),
    after refusing a setup that grid cannot run (see _refuse_unresolved)."""
    grid = default_grid_for(cfg)
    _refuse_unresolved(cfg, grid, mode)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    wf = init_packet(grid, cfg.initial)
    samples = np.empty(cfg.n_measurements)
    for i in range(cfg.n_measurements):
        wf = evolve(wf, cfg.scheme.t_M, cfg.params, dt=dt)
        if wf.boundary_probability() > LEAKAGE_THRESHOLD:
            raise LeakageError(f"boundary density exceeded {LEAKAGE_THRESHOLD} at step {i}")
        samples[i], wf = measure_and_collapse(wf, cfg.scheme.sigma_M, mode, rng)
    return MeasurementRecord(samples=samples)
