"""Brute-force oracle: Schrodinger evolution on a uniform spatial grid.

Harmonic evolution for a time t is a rotation of phase space, which the
three-shear (metaplectic) factorisation evaluates exactly with one FFT pair:
a position chirp, a momentum chirp, the same position chirp (Ozaktas et al.,
IEEE TSP 44, 1996; Paeth 1986). Symmetric (Strang) split-operator stepping
with a spectral kinetic term is kept as the step-by-step route, taken when a
time step is given. Nothing in here knows the closed-form width evolution;
the point is to validate those formulas and the chain construction from
first principles.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain_analytics import EPS_RES, ChainClosedForm, limiting_sigma, povm_parameters
from .errors import DomainError, GridTooCoarse, GridTooSmall, LeakageError
from .gaussian_core import Gaussian, OscillatorParams, WavePacket
from .trajectory_sim import ChainConfig, MeasurementRecord

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
def _rotation_chirps(
    grid: Grid, t: float, params: OscillatorParams
) -> tuple[np.ndarray, np.ndarray, int]:
    """Position chirp cx, momentum chirp ck and the number of pieces whose
    product cx ifft(ck fft(cx psi)), applied pieces times, is U(t) up to a
    global phase.

    theta = omega t is reduced mod 2 pi (densities are T-periodic); above
    pi/2 it is halved, so tan(theta/2) stays at most 1.
    """
    theta = math.remainder(params.omega * t, 2.0 * math.pi)
    pieces = 2 if abs(theta) > 0.5 * math.pi else 1
    theta /= pieces
    m_omega = params.mass * params.omega
    cx = np.exp(-0.5j * m_omega * math.tan(0.5 * theta) / params.hbar * grid.x**2)
    ck = np.exp(-0.5j * params.hbar * math.sin(theta) / m_omega * grid.k**2)
    cx.flags.writeable = False
    ck.flags.writeable = False
    return cx, ck, pieces


def evolve(
    psi: GridWavefunction,
    t: float,
    params: OscillatorParams,
    dt: float | None = None,
) -> GridWavefunction:
    """Propagate under V = (1/2) m omega^2 x^2 for time t.

    Without dt the propagation is exact: one position-momentum-position
    chirp product per piece (see _rotation_chirps). With dt it takes Strang
    steps of t/n_steps, n_steps chosen so the requested time is hit exactly.
    """
    if t == 0.0:
        return GridWavefunction(psi.grid, psi.psi.copy())
    grid = psi.grid
    if dt is None:
        cx, ck, pieces = _rotation_chirps(grid, t, params)
        out = psi.psi
        for _ in range(pieces):
            out = cx * np.fft.ifft(ck * np.fft.fft(cx * out))
        return GridWavefunction(grid, out)
    n_steps = max(1, round(abs(t) / dt))
    dt = t / n_steps
    hbar, m = params.hbar, params.mass
    v = 0.5 * m * params.omega**2 * grid.x**2
    half_pot = np.exp(-0.5j * dt * v / hbar)
    full_pot = half_pot * half_pot
    kin = np.exp(-0.5j * dt * hbar * grid.k**2 / m)
    out = psi.psi * half_pot
    for step in range(n_steps):
        out = np.fft.ifft(kin * np.fft.fft(out))
        out *= full_pot if step < n_steps - 1 else half_pot
    return GridWavefunction(grid, out)


def _sample_from_density(wf: GridWavefunction, rng: np.random.Generator) -> float:
    """Inverse-CDF draw from the discrete |psi|^2, linear within bins."""
    grid = wf.grid
    p = wf.density() * grid.dx
    p = p / p.sum()
    cum = np.cumsum(p)
    u = rng.random()
    j = int(np.searchsorted(cum, u))
    j = min(j, grid.n_points - 1)
    prev = cum[j - 1] if j > 0 else 0.0
    frac = (u - prev) / p[j] if p[j] > 0 else 0.5
    return float(grid.x[j] + grid.dx * frac)


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
    cf = ChainClosedForm.from_setup(cfg.params, cfg.scheme, cfg.initial)
    scale = cfg.params.sigma_gs
    if cf.sin_abs > EPS_RES:
        scale = max(scale, limiting_sigma(cf))
    return Grid.symmetric(12.0 * scale, n_points)


def _refuse_unresolved(cfg: ChainConfig, grid: Grid, sigma_inf: float | None) -> None:
    """The default grid spans +-12 max(sigma_inf, sigma_gs) on a fixed number
    of points; a large sigma_inf or a tiny width leaves its spacing too coarse
    for the instrument or the initial packet."""
    widths = {"sigma_M": cfg.scheme.sigma_M, "sigma_x0": cfg.initial.sigma_x0}
    unresolved = [f"{name}={w:.4g}" for name, w in widths.items() if w <= 4.0 * grid.dx]
    if unresolved:
        limit = "none at resonance" if sigma_inf is None else f"{sigma_inf:.4g}"
        raise DomainError(
            f"the default grid spans +-12 max(sigma_inf, sigma_gs) = +-{grid.x_max:.4g} "
            f"(sigma_inf={limit}) on {grid.n_points} points, so dx={grid.dx:.4g} cannot resolve "
            f"{' or '.join(unresolved)} (needs dx < width/4)"
        )


def run_chain_grid(
    cfg: ChainConfig,
    grid: Grid | None = None,
    mode: CollapseMode = CollapseMode.REPLACE,
    dt: float | None = None,
) -> MeasurementRecord:
    """Full measurement chain driven by grid dynamics."""
    cf = ChainClosedForm.from_setup(cfg.params, cfg.scheme, cfg.initial)
    sigma_inf = limiting_sigma(cf) if cf.sin_abs > EPS_RES else None
    if grid is None:
        grid = default_grid_for(cfg)
        _refuse_unresolved(cfg, grid, sigma_inf)
    if sigma_inf is not None and grid.x_max < 8.0 * sigma_inf:
        raise GridTooSmall(
            f"grid extent {grid.x_max} < 8 sigma_inf = {8.0 * sigma_inf:.4g}"
        )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    wf = init_packet(grid, cfg.initial)
    samples = np.empty(cfg.n_measurements)
    for i in range(cfg.n_measurements):
        wf = evolve(wf, cfg.scheme.t_M, cfg.params, dt=dt)
        if wf.boundary_probability() > LEAKAGE_THRESHOLD:
            raise LeakageError(f"boundary density exceeded {LEAKAGE_THRESHOLD} at step {i}")
        samples[i], wf = measure_and_collapse(wf, cfg.scheme.sigma_M, mode, rng)
    return MeasurementRecord(samples=samples)
