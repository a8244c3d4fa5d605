"""Closed-form statistics of the periodic measurement chain.

A measurement every t_M seconds collapses the state to a Gaussian of width
sigma_M; free harmonic evolution until the next measurement turns the
outcome sequence into a linear Gaussian chain with memory coefficient
rho = cos(omega t_M). This module carries the per-measurement densities,
the limiting width, its non-dimensional form, and the weak-measurement
(POVM) reformulation of the collapse. ChainConfig, a chain's whole setup,
lives here with the closed form it derives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainError, PrecisionError, ResonanceError
from .gaussian_core import (
    Gaussian,
    OscillatorParams,
    WavePacket,
    evolved_width,
)

# |sin(omega t_M)| at or below this is treated as resonant (divergent chain).
EPS_RES = 1e-9


def _resonant(sin: float, cos: float) -> bool:
    """Whether the chain at phase omega t_M diverges: |sin| <= EPS_RES, or
    cos rounded to +-1, where 1 - cos^2 is 0 in floats."""
    return abs(sin) <= EPS_RES or abs(cos) == 1.0


@dataclass(frozen=True)
class MeasurementScheme:
    """Periodic position measurement: period t_M, instrument width sigma_M,
    optional Gaussian jitter (std, in time units) on the period."""

    t_M: float
    sigma_M: float
    jitter_std: float = 0.0

    def __post_init__(self):
        if not self.t_M > 0:
            raise ValueError("t_M must be > 0")
        if not self.sigma_M > 0:
            raise ValueError("sigma_M must be > 0")
        if self.jitter_std < 0:
            raise ValueError("jitter_std must be >= 0")

    def rho(self, params: OscillatorParams) -> float:
        """Memory coefficient cos(omega t_M) of the chain."""
        return math.cos(params.omega * self.t_M)


@dataclass(frozen=True)
class ChainClosedForm:
    """Derived scalars the chain recursion runs on.

    sigma_step  - width of the evolved post-collapse packet, sigma(t_M)
                  starting from width sigma_M
    sigma_first - width of the evolved *initial* packet at the first
                  measurement, sigma_0(t_M)
    rho         - cos(omega t_M)
    sin_abs     - |sin(omega t_M)|; stored rather than re-derived from rho
                  to avoid cancellation in 1 - rho^2 near resonance
    """

    sigma_step: float
    sigma_first: float
    rho: float
    sin_abs: float = field(default=-1.0)

    def __post_init__(self):
        if not (0 < self.sigma_step < math.inf and 0 < self.sigma_first < math.inf):
            raise ValueError("sigma_step and sigma_first must be finite and > 0")
        if self.sin_abs < 0:
            object.__setattr__(self, "sin_abs", math.sqrt(max(0.0, 1.0 - self.rho**2)))

    @classmethod
    def from_setup(
        cls,
        params: OscillatorParams,
        scheme: MeasurementScheme,
        initial: WavePacket,
    ) -> "ChainClosedForm":
        """Raises DomainError when rounding sets omega t_M or the scales overflow floats."""
        wt = _phase(params.omega * scheme.t_M)
        try:
            return cls(
                sigma_step=evolved_width(params, scheme.sigma_M, scheme.t_M),
                sigma_first=evolved_width(params, initial.sigma_x0, scheme.t_M),
                rho=math.cos(wt),
                sin_abs=abs(math.sin(wt)),
            )
        except ValueError as exc:  # an inf or NaN width, or cos(inf)
            raise DomainError(f"scales outside float range for this setup: {exc}") from exc

    @property
    def sigma_inf(self) -> float | None:
        """Limiting outcome width |sigma(t_M)/sin(omega t_M)|; None at
        resonance, where the chain diverges."""
        return None if _resonant(self.sin_abs, self.rho) else self.sigma_step / self.sin_abs


@dataclass(frozen=True)
class ChainConfig:
    params: OscillatorParams
    scheme: MeasurementScheme
    initial: WavePacket
    n_measurements: int
    seed: int

    def __post_init__(self):
        if self.n_measurements < 1:
            raise ValueError("n_measurements must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @cached_property
    def closed_form(self) -> ChainClosedForm:
        """ChainClosedForm.from_setup of this setup, derived once; a DomainError is not cached."""
        return ChainClosedForm.from_setup(self.params, self.scheme, self.initial)


@dataclass(frozen=True)
class NondimPoint:
    """Non-dimensional scheme: varsigma_M = sigma_M/sigma_gs, tau_M = t_M/T."""

    varsigma_M: float
    tau_M: float

    def __post_init__(self):
        if not self.varsigma_M > 0 or not self.tau_M > 0:
            raise ValueError("varsigma_M and tau_M must be > 0")


def _geometric_sum(q: float, m: int) -> float:
    """Sum_{k=0}^{m-1} q^k, exact closed form."""
    if m <= 0:
        return 0.0
    if q == 1.0:
        return float(m)
    return (1.0 - q**m) / (1.0 - q)


def density_before_nth(cf: ChainClosedForm, n: int, x0: float = 0.0) -> Gaussian:
    """Outcome density just before the n-th measurement (n >= 1) of a chain
    started from a packet centered at x0.

    Mean: x0 * rho^n.
    Variance: sigma_step^2 * sum_{k=0}^{n-2} rho^(2k)
              + sigma_first^2 * rho^(2(n-1)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q = cf.rho * cf.rho
    var = cf.sigma_step**2 * _geometric_sum(q, n - 1) + cf.sigma_first**2 * q ** (n - 1)
    return Gaussian(mean=x0 * cf.rho**n, std=math.sqrt(var))


def limiting_sigma(cf: ChainClosedForm) -> float:
    """n -> infinity limit of the outcome density width, cf.sigma_inf;
    raises ResonanceError at resonance."""
    if cf.sigma_inf is None:
        raise ResonanceError(
            f"|sin(omega t_M)| = {cf.sin_abs:.3e}, rho = {cf.rho!r}: resonant, the chain variance diverges"
        )
    return cf.sigma_inf


def _phase(angle: float, name: str = "omega t_M") -> float:
    """angle; DomainError from 2^23 rad, where its float spacing exceeds EPS_RES and
    so rounding, not the setup, decides |sin(angle)| <= EPS_RES."""
    if math.ulp(angle) > EPS_RES:
        raise DomainError(f"{name} = {angle!r} rad is set by rounding: its float spacing exceeds {EPS_RES}")
    return angle


def _limit_width(width: float, angle: float, gs: float) -> float:
    """sqrt(width^2 cot^2(angle) + gs^4 / (4 width^2)), the limiting width of
    both forms below, in gs units: gs sqrt(u^2 cot^2 + 1/(4 u^2)), u = width / gs.
    Raises ResonanceError at resonance and DomainError where rounding sets
    the angle or the value leaves float range."""
    s, c = math.sin(_phase(angle)), math.cos(angle)
    if _resonant(s, c):
        raise ResonanceError(f"sin({angle!r}) = {s:.3e}, cos = {c!r}: resonant, the limiting width diverges")
    try:
        u2 = (width / gs) ** 2
        value = gs * math.sqrt(u2 * (c / s) ** 2 + 1.0 / (4.0 * u2))
    except ArithmeticError:  # u^2 overflows, or underflows to 0
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"limiting width outside float range at width {width!r}, sigma_gs {gs!r}")
    return value


def limiting_sigma_simplified(params: OscillatorParams, scheme: MeasurementScheme) -> float:
    """Limiting width written directly in instrument terms:

    sqrt(sigma_M^2 cot^2(omega t_M) + sigma_gs^4 / (4 sigma_M^2))
    """
    return _limit_width(scheme.sigma_M, params.omega * scheme.t_M, params.sigma_gs)


def nondim_limit(p: NondimPoint) -> float:
    """Dimensionless limiting width:

    varsigma_inf = sqrt(varsigma_M^2 cot^2(2 pi tau_M) + 1/(4 varsigma_M^2))
    """
    return _limit_width(p.varsigma_M, 2.0 * math.pi * p.tau_M, 1.0)


def optimal_precision(tau_M: float) -> float:
    """Instrument width varsigma_M = sqrt(tan(2 pi tau_M)/2) minimizing the
    limiting width at fixed tau_M. Defined only where tan(2 pi tau_M) > 0
    and finite; elsewhere there is no interior minimum."""
    ang = 2.0 * math.pi * tau_M
    s, c = math.sin(ang), math.cos(ang)
    if abs(c) <= EPS_RES:
        raise DomainError(f"tan(2 pi tau_M) diverges at tau_M = {tau_M}; no interior minimum")
    t = s / c
    if t <= 0:
        raise DomainError(f"tan(2 pi tau_M) = {t:.3e} <= 0 at tau_M = {tau_M}; no interior minimum")
    return math.sqrt(t / 2.0)


def ensemble_variance_partial(cf: ChainClosedForm, n: int) -> float:
    """Average of the first n per-measurement variances, s_n^2, in closed form.

    With q = rho^2:
        sum_i sigma_i^2 = sigma_step^2/(1-q) * (n - (1-q^n)/(1-q))
                          + sigma_first^2 * (1-q^n)/(1-q)
    divided by n. Converges to limiting_sigma^2 as n grows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    limiting_sigma(cf)  # raises ResonanceError at resonance
    q = cf.rho * cf.rho
    gn = _geometric_sum(q, n)  # (1 - q^n)/(1 - q)
    total = cf.sigma_step**2 * (n - gn) / (1.0 - q) + cf.sigma_first**2 * gn
    return total / n


def povm_parameters(sigma_M: float, x_M: float, prior: Gaussian) -> tuple[float, float]:
    """Weak-measurement window (sigma_W, x_W) whose Gaussian product with the
    prior reproduces the replacement collapse to N(x_M, sigma_M^2).

    Requires prior.std > sigma_M strictly; otherwise the collapse can only
    narrow the state and no real window exists.
    """
    vpsi = prior.variance
    vM = sigma_M * sigma_M
    if prior.std <= sigma_M:
        raise PrecisionError(
            f"prior std {prior.std} <= instrument width {sigma_M}: "
            "collapse not realizable as a weak measurement"
        )
    vW = vM * vpsi / (vpsi - vM)
    # inverting x_M = (x_W vpsi + mu vW)/(vW + vpsi) gives a mu*vM term,
    # not mu*vW; the round-trip product check pins this down
    xW = (x_M * vpsi - prior.mean * vM) / (vpsi - vM)
    return math.sqrt(vW), xW
