"""Monte Carlo simulation of the single-system measurement record.

Because every post-collapse state is Gaussian, the outcome sequence is an
exact linear Gaussian chain:

    x_1 = x0 * rho + sigma_first * eta_1
    x_i = x_{i-1} * rho + sigma_step * eta_i      (i >= 2)

with iid standard-normal eta. No discretization is involved; the grid
oracle exists to cross-check this construction, not the other way round.

The recurrence is evaluated by ar1_scan, a numpy-only lane scan that
gives the same bits as the step-by-step loop (one rounded product and one
rounded sum per step), so a seed's output does not depend on how the scan
is cut into chunks and lanes.

RNG policy: PCG64 seeded through numpy SeedSequence; standard normals are
produced by the inverse-CDF transform on uniforms so every sample consumes
exactly one draw (no rejection loops in the record path). Ensembles split
the seed with SeedSequence.spawn.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain_analytics import (
    EPS_RES,
    ChainClosedForm,
    MeasurementScheme,
    limiting_sigma,
)
from .errors import InsufficientSamples, ResonanceError
from .gaussian_core import OscillatorParams, WavePacket, evolved_width

# Floor on jittered evolution times, as a fraction of the nominal period.
T_MIN_FRACTION = 1e-6

# Thinned chain output keeps at most this much lag-k correlation.
THINNING_THRESHOLD = 0.05

HIST_BINS = 200
HIST_HALF_WIDTH_SIGMAS = 6.0

# ar1_scan works on chunks of this many samples, which bounds its scratch
# memory whatever the chain length, and runs its loop on pieces of at most
# SCAN_LOOP_PIECE samples: longer Python lists are slower per sample.
SCAN_CHUNK = 1 << 19
SCAN_LOOP_PIECE = 1 << 17
# Warm-up steps added to the 53-bit decay length of each lane.
SCAN_WARMUP_MARGIN = 64
# With fewer lanes side by side, the lane scan is no faster than the loop.
SCAN_MIN_LANES = 32


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


@dataclass(frozen=True)
class MeasurementRecord:
    """Ordered measurement outcomes; effective periods when jitter is active."""

    samples: np.ndarray
    periods: np.ndarray | None = None


@dataclass
class RunningStats:
    """Streaming count/mean/variance (Welford/Chan) plus a fixed-bin histogram.

    Histogram counts have two overflow slots: counts[0] below edges[0],
    counts[-1] above edges[-1] (the last bin is closed, as in np.histogram).
    """

    edges: np.ndarray
    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros(len(self.edges) + 1, dtype=np.int64)

    @classmethod
    def for_scale(cls, sigma_ref: float) -> "RunningStats":
        """Uniform bins over +-HIST_HALF_WIDTH_SIGMAS * sigma_ref."""
        half = HIST_HALF_WIDTH_SIGMAS * sigma_ref
        return cls(edges=np.linspace(-half, half, HIST_BINS + 1))

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def push_array(self, xs: np.ndarray) -> None:
        xs = np.asarray(xs, dtype=float)
        nb = xs.size
        if nb == 0:
            return
        mb = float(xs.mean())
        m2b = float(((xs - mb) ** 2).sum())
        self._merge_moments(nb, mb, m2b)
        inner, _ = np.histogram(xs, bins=self.edges)
        self.counts[1:-1] += inner
        self.counts[0] += int((xs < self.edges[0]).sum())
        self.counts[-1] += int((xs > self.edges[-1]).sum())

    def _merge_moments(self, nb: int, mb: float, m2b: float) -> None:
        na = self.count
        n = na + nb
        delta = mb - self.mean
        self.mean += delta * nb / n
        self._m2 += m2b + delta * delta * na * nb / n
        self.count = n

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two stats accumulated over identical bin edges."""
        if not np.array_equal(self.edges, other.edges):
            raise ValueError("cannot merge histograms with different bin edges")
        out = RunningStats(
            edges=self.edges,
            count=self.count,
            mean=self.mean,
            _m2=self._m2,
            counts=self.counts.copy(),
        )
        if other.count:
            out._merge_moments(other.count, other.mean, other._m2)
        out.counts += other.counts
        return out


def _standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Inverse-CDF normals: one uniform per sample, fully deterministic."""
    from scipy.special import ndtri  # loaded only by the commands that sample

    u = rng.random(n)
    np.maximum(u, 1e-300, out=u)  # ndtri(0) is -inf
    return ndtri(u)


def _scan_loop(a, b: np.ndarray, y: float) -> np.ndarray:
    """The sequential recurrence in Python floats: the reference order."""
    a_steps = itertools.repeat(float(a)) if np.ndim(a) == 0 else a.tolist()
    out = []
    for ai, bi in zip(a_steps, b.tolist()):
        y = ai * y + bi
        out.append(y)
    return np.array(out, dtype=float)


def _scan_warmup(a) -> int | None:
    """Steps after which a state started from zero has decayed below the last
    bit of the true one (|a|^k <= 2^-53), plus SCAN_WARMUP_MARGIN; None when
    some |a_i| >= 1 (or is NaN), where a wrong start never decays."""
    a_max = float(np.max(np.abs(a)))
    if not a_max < 1.0:
        return None
    decay = 0 if a_max == 0.0 else math.ceil(53 * math.log(2) / -math.log(a_max))
    return max(1, decay + SCAN_WARMUP_MARGIN)


def _scan_chunk(a, b: np.ndarray, y: float, out: np.ndarray) -> None:
    """out = ar1_scan(a, b, y) for one chunk, by lanes of k samples scanned side
    by side. Lane j >= 1 warms up from zero over lane j-1; where its warm-up
    ends on lane j-1's last value bit for bit, its later steps are the loop's.
    Other lanes, and the samples after the last lane, go to the loop."""
    m = b.size
    k = _scan_warmup(a)
    lanes = 0 if k is None else m // k
    if lanes < SCAN_MIN_LANES:
        for lo in range(0, m, SCAN_LOOP_PIECE):
            hi = min(lo + SCAN_LOOP_PIECE, m)
            out[lo:hi] = _scan_loop(a if np.ndim(a) == 0 else a[lo:hi], b[lo:hi], y)
            y = float(out[hi - 1])
        return

    whole = lanes * k
    y_rows = b[:whole].reshape(lanes, k).T.copy()  # [t, j] = b[j k + t], then y there
    a_rows = np.broadcast_to(float(a), y_rows.shape) if np.ndim(a) == 0 else a[:whole].reshape(lanes, k).T.copy()
    start = np.zeros(lanes)
    warm = start[1:]
    for at, bt in zip(a_rows[:, :-1], y_rows[:, :-1]):  # lane j over lane j-1
        np.multiply(at, warm, warm)
        np.add(warm, bt, warm)
    start[0] = y  # lane 0 starts from the carried state
    state, product = start, np.empty(lanes)
    for at, yt in zip(a_rows, y_rows):  # the true pass, in place
        np.multiply(at, state, product)
        np.add(product, yt, yt)
        state = yt
    out[:whole].reshape(lanes, k)[:] = y_rows.T

    bits, warm_end = out.view(np.uint64), start.view(np.uint64)
    disagree = np.flatnonzero(warm_end[1:] != y_rows[-1, :-1].view(np.uint64)) + 1
    # a stack, lowest lane on top; the tail after the last lane is lane `lanes`
    todo = [lanes] * (whole < m) + disagree.tolist()[::-1]
    while todo:
        j = todo.pop()
        lo, hi = j * k, min(j * k + k, m)
        out[lo:hi] = _scan_loop(a if np.ndim(a) == 0 else a[lo:hi], b[lo:hi], float(out[lo - 1]))
        # lane j+1 was checked against lane j's old last value
        if j + 1 < lanes and (not todo or todo[-1] != j + 1) and warm_end[j + 1] != bits[hi - 1]:
            todo.append(j + 1)


def ar1_scan(a, b: np.ndarray, y0: float) -> np.ndarray:
    """y_i = b_i + a_i y_{i-1} for i = 0..n-1, from y_{-1} = y0.

    a is a scalar or an array like b. The result has the same bits as the
    sequential loop, which rounds the product a_i y_{i-1} and then the sum,
    as a first-order IIR filter's loop does.
    """
    b = np.asarray(b, dtype=float)
    out = np.empty(b.size)
    y = float(y0)
    for lo in range(0, b.size, SCAN_CHUNK):
        hi = min(lo + SCAN_CHUNK, b.size)
        _scan_chunk(a if np.ndim(a) == 0 else a[lo:hi], b[lo:hi], y, out[lo:hi])
        y = float(out[hi - 1])
    return out


def _run_chain_seeded(cfg: ChainConfig, seed_seq: np.random.SeedSequence):
    """Draw and scan one chain. Without jitter every step has the nominal
    memory coefficient and width; with it, the periods are drawn first and
    each step's coefficient and width are recomputed for its period."""
    params, scheme, n = cfg.params, cfg.scheme, cfg.n_measurements
    cf = ChainClosedForm.from_setup(params, scheme, cfg.initial)
    resonant = cf.sin_abs <= EPS_RES
    if resonant and scheme.jitter_std == 0.0:
        raise ResonanceError(
            f"t_M = {scheme.t_M} resonant: chain variance diverges without jitter"
        )
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    if scheme.jitter_std == 0.0:
        periods = None
        eta = _standard_normal(rng, n)
        noise = cf.sigma_step * eta
        noise[0] = cf.sigma_first * eta[0]  # the first step evolves the initial packet
        x = ar1_scan(cf.rho, noise, cfg.initial.x0)
    else:
        t_min = T_MIN_FRACTION * scheme.t_M
        periods = np.maximum(t_min, scheme.t_M + scheme.jitter_std * _standard_normal(rng, n))
        eta = _standard_normal(rng, n)
        noise = evolved_width(params, scheme.sigma_M, periods) * eta
        noise[0] = evolved_width(params, cfg.initial.sigma_x0, periods[0]) * eta[0]
        # a temporary, freed before push_array's scratch: held, it raises peak memory
        x = ar1_scan(np.cos(params.omega * periods), noise, cfg.initial.x0)
    # a resonant chain has no limiting width; its histogram takes a generous one
    scale = 10.0 * max(cf.sigma_first, cf.sigma_step, params.sigma_gs) if resonant else limiting_sigma(cf)
    stats = RunningStats.for_scale(scale)
    stats.push_array(x)
    return MeasurementRecord(samples=x, periods=periods), stats


def run_chain(cfg: ChainConfig) -> tuple[MeasurementRecord, RunningStats]:
    """Simulate the exact measurement chain; deterministic given cfg.seed.

    With jitter_std > 0 each step evolves for t_i = max(t_min, t_M +
    jitter_std * eta), with the memory coefficient and step width recomputed
    for t_i, and the record carries the periods. Only such a chain may have
    a resonant t_M.
    """
    return _run_chain_seeded(cfg, np.random.SeedSequence(cfg.seed))


# a second name, kept for perfbench's chain_ensemble, which calls it
run_chain_jittered = run_chain


def run_ensemble(cfg: ChainConfig, n_chains: int) -> RunningStats:
    """Pooled statistics of n_chains independent chains.

    Per-chain RNG streams come from SeedSequence(cfg.seed).spawn; the merge
    of count/mean/variance is exact.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    children = np.random.SeedSequence(cfg.seed).spawn(n_chains)
    pooled = None
    for child in children:
        _, stats = _run_chain_seeded(cfg, child)
        pooled = stats if pooled is None else pooled.merge(stats)
    return pooled


def thinning_interval(rho: float) -> int:
    """Smallest k with |rho|^k < THINNING_THRESHOLD; 1 for a memoryless chain."""
    r = abs(rho)
    if r >= 1.0:
        raise ValueError("|rho| must be < 1 to thin to independence")
    if r == 0.0 or r**1 < THINNING_THRESHOLD:
        return 1
    k = math.ceil(math.log(THINNING_THRESHOLD) / math.log(r))
    while r**k >= THINNING_THRESHOLD:  # guard rounding at the boundary
        k += 1
    return k


def ks_critical_1pct(n: int) -> float:
    """One-sample KS critical value at the 1% level (asymptotic)."""
    return 1.63 / math.sqrt(n)


def normality_statistic(samples: np.ndarray, sigma_target: float) -> float:
    """Kolmogorov-Smirnov D of the samples against N(0, sigma_target^2).

    Callers are responsible for thinning correlated chain output first
    (see thinning_interval); KS on correlated samples is not valid.
    """
    from scipy.special import ndtr  # loaded only by the commands that test

    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n < 100:
        raise InsufficientSamples(f"need >= 100 samples for KS, got {n}")
    cdf = ndtr(xs / sigma_target)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    return float(max(d_plus, d_minus))
