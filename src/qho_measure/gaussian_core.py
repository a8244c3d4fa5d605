"""Closed-form Gaussian densities and their evolution in a harmonic well.

Everything here is exact algebra on normalized Gaussians: the evolved
width/center of a Gaussian packet under harmonic dynamics, and products of
Gaussian densities. All types are immutable values and all functions are
pure. numpy is imported by the functions that use it, so the CLI's import
path (which loads this module) does not load numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Gaussian:
    """A normalized Gaussian probability density N(mean, std^2)."""

    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError(f"Gaussian std must be > 0, got {self.std}")

    def pdf(self, x):
        import numpy as np
        z = (np.asarray(x, dtype=float) - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * self.std)

    @property
    def variance(self) -> float:
        return self.std * self.std


@dataclass(frozen=True)
class OscillatorParams:
    """Harmonic oscillator V(x) = (1/2) m omega^2 x^2, natural units by default."""

    mass: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("mass", "omega", "hbar"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def sigma_gs(self) -> float:
        """Ground-state length scale sqrt(hbar / (m omega))."""
        return math.sqrt(self.hbar / (self.mass * self.omega))

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


@dataclass(frozen=True)
class WavePacket:
    """Gaussian packet with density centered at x0 and density std sigma_x0."""

    x0: float
    sigma_x0: float

    def __post_init__(self):
        if not self.sigma_x0 > 0:
            raise ValueError("sigma_x0 must be > 0")


def evolved_width(params: OscillatorParams, sigma_x0, t):
    """Density width sigma(t) of a Gaussian packet of initial width sigma_x0.

    sigma(t) = sgs^2/(2 sqrt(2) sigma_x0) *
               sqrt(4 (sigma_x0/sgs)^4 + 1 + (4 (sigma_x0/sgs)^4 - 1) cos 2wt)

    Accepts scalars or numpy arrays for sigma_x0 and t.
    """
    import numpy as np
    sgs = params.sigma_gs
    sigma_x0 = np.asarray(sigma_x0, dtype=float)
    r4 = (sigma_x0 / sgs) ** 4
    val = (sgs * sgs / (2.0 * math.sqrt(2.0) * sigma_x0)) * np.sqrt(
        4.0 * r4 + 1.0 + (4.0 * r4 - 1.0) * np.cos(2.0 * params.omega * np.asarray(t, dtype=float))
    )
    return float(val) if val.ndim == 0 else val


def evolved_density(params: OscillatorParams, packet: WavePacket, t: float) -> Gaussian:
    """Position density of a Gaussian packet after free harmonic evolution.

    Center oscillates as x0 cos(wt); width follows evolved_width.
    """
    return Gaussian(
        mean=packet.x0 * math.cos(params.omega * t),
        std=evolved_width(params, packet.sigma_x0, t),
    )


def gaussian_product(a: Gaussian, b: Gaussian) -> Gaussian:
    """Pointwise product of two Gaussian pdfs, normalized: proportional to
    a.pdf(x) * b.pdf(x)."""
    va, vb = a.variance, b.variance
    v = va * vb / (va + vb)
    mean = (a.mean * vb + b.mean * va) / (va + vb)
    return Gaussian(mean=mean, std=math.sqrt(v))
