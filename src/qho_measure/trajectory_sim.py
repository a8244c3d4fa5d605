"""Monte Carlo simulation of the single-system measurement record.

Because every post-collapse state is Gaussian, the outcome sequence is an
exact linear Gaussian chain:

    x_1 = x0 * rho + sigma_first * eta_1
    x_i = x_{i-1} * rho + sigma_step * eta_i      (i >= 2)

with iid standard-normal eta. No discretization is involved; the grid
oracle exists to cross-check this construction, not the other way round.

The recurrence is evaluated by a numpy-only lane scan, ar1_scan, that
gives the same bits as the step-by-step loop (one rounded product and one
rounded sum per step), so a seed's output does not depend on how the scan
is cut into chunks and lanes. _run_chain_seeded calls ar1_scan once per
chunk of SCAN_LANES lanes (at most SCAN_CHUNK steps), and pushes every
SCAN_CHUNK steps into the chain's statistics.

RNG policy: PCG64 seeded through numpy SeedSequence; standard normals are
produced by the inverse-CDF transform on uniforms so every sample consumes
exactly one draw (no rejection loops in the record path). Draws made chunk
by chunk are bit-identical to one whole-length draw. Ensembles split the
seed with SeedSequence.spawn. The transform is Cephes ndtri: scipy's when
scipy can be imported, else its bit-identical port in cephes (see _special).

Ensembles run their chains on several threads (see run_ensemble): the heavy
kernels (PCG64 draws, scipy's ndtri, the lane scan's row ufuncs,
np.histogram) release the GIL; the port's math.log pass holds it.
"""
from __future__ import annotations

import contextvars
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .chain_analytics import ChainConfig, _phase
from .errors import InsufficientSamples, ResonanceError
from .gaussian_core import evolved_width

# Floor on jittered evolution times, as a fraction of the nominal period.
T_MIN_FRACTION = 1e-6
# Above ndtri(1 - 2^-53) = 8.2095: uniforms are below 1, so no normal drawn exceeds it.
NORMAL_MAX = 8.21

# Thinned chain output keeps at most this much lag-k correlation.
THINNING_THRESHOLD = 0.05

HIST_BINS = 200
HIST_HALF_WIDTH_SIGMAS = 6.0

# A chain's statistics take its outcomes SCAN_CHUNK steps at a time. Within
# each such block the outcomes are drawn and scanned in chunks of SCAN_LANES
# lanes of the nominal rho's lane length (at least 2^17 steps: a lane is at
# least SCAN_WARMUP_MARGIN steps), at most SCAN_CHUNK steps. That bounds the
# chain's scratch memory whatever its length, and keeps it small where lanes
# are short. The scan runs its loop on pieces of at most SCAN_LOOP_PIECE
# samples: longer Python lists are slower per sample.
SCAN_LANES = 2048
SCAN_CHUNK = 1 << 19
SCAN_LOOP_PIECE = 1 << 17
# Warm-up steps added to the 53-bit decay length of each lane.
SCAN_WARMUP_MARGIN = 64
# With fewer lanes side by side, the lane scan is no faster than the loop.
SCAN_MIN_LANES = 32

# Runs of more values through ndtri or ndtr import scipy.special if they can.
# For fewer, its import (about 0.3 s) costs more than the numpy ports in cephes
# add (about 110 ns a value for ndtri, 100 ns for ndtr).
PORT_MAX_VALUES = 2_000_000

# normality_statistic takes the CDF of its sorted sample this many values at
# a time, so its scratch beyond the sorted copy does not grow with the sample.
KS_BLOCK = 1 << 16

# np.add.reduce sums a contiguous float64 array pairwise, splitting n values
# at n // 2 - (n // 2) % 8; prefix_std follows the split down to pieces of at
# most STD_PIECE values, whose squared deviations are its only scratch.
STD_PIECE = 1 << 14


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
        d = xs - mb
        d *= d
        m2b = float(d.sum())
        del d  # freed before np.histogram's scratch
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
        out = replace(self, counts=self.counts + other.counts)
        if other.count:
            out._merge_moments(other.count, other.mean, other._m2)
        return out


def _special(count: int):
    """The ndtri and ndtr for a run of count values: scipy.special's where it
    is loaded already, or where count exceeds PORT_MAX_VALUES and scipy can
    be imported; else the ports in cephes. Both give the same bits."""
    if count > PORT_MAX_VALUES or "scipy.special" in sys.modules:
        try:
            from scipy import special
            return special
        except ImportError:
            pass
    from . import cephes
    return cephes


def _standard_normal(rng: np.random.Generator, out: np.ndarray, total: int) -> np.ndarray:
    """Inverse-CDF normals into out: one uniform per sample, fully
    deterministic. total, the run's count of normals, picks the backend."""
    rng.random(out=out)
    np.maximum(out, 1e-300, out=out)  # ndtri(0) is -inf
    return _special(total).ndtri(out, out=out)


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


def ar1_scan(a, b: np.ndarray, y: float, out: np.ndarray) -> np.ndarray:
    """y_i = b_i + a_i y_{i-1} for i = 0..n-1, from y_{-1} = y, into out.

    a is a scalar or an array like b. The result has the same bits as the
    sequential loop, which rounds the product a_i y_{i-1} and then the sum,
    as a first-order IIR filter's loop does. Lanes of k samples are scanned
    side by side: lane j >= 1 warms up from zero over lane j-1, and where
    its warm-up ends on lane j-1's last value bit for bit, its later steps
    are the loop's. Other lanes, and the samples after the last lane, go to
    the loop."""
    m = b.size
    k = _scan_warmup(a)
    lanes = 0 if k is None else m // k
    if lanes < SCAN_MIN_LANES:
        for lo in range(0, m, SCAN_LOOP_PIECE):
            hi = min(lo + SCAN_LOOP_PIECE, m)
            out[lo:hi] = _scan_loop(a if np.ndim(a) == 0 else a[lo:hi], b[lo:hi], y)
            y = float(out[hi - 1])
        return out

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
    return out


def _run_chain_seeded(cfg: ChainConfig, seed_seq: np.random.SeedSequence, keep: bool = True):
    """Draw, scale and scan one chain a chunk at a time, in buffers reused
    from chunk to chunk, and push each SCAN_CHUNK steps into the
    statistics, so their bits do not depend on the chunk. A chunk is
    SCAN_LANES lanes of the lane length of the nominal rho, at most
    SCAN_CHUNK steps, and SCAN_CHUNK where rho has no lane length (|rho| = 1).
    With keep the outcomes (and periods) are written straight into the
    returned record; without it they live in buffers of SCAN_CHUNK steps and
    of one chunk, and the record is None, so the chain's memory does not
    grow with its length.

    Without jitter every step has the nominal memory coefficient and width.
    With it, uniforms 0..n-1 give the periods and n..2n-1 the noise, and each
    step's coefficient and width are recomputed for its period."""
    params, scheme, n, cf = cfg.params, cfg.scheme, cfg.n_measurements, cfg.closed_form
    resonant = cf.sigma_inf is None
    jittered = scheme.jitter_std != 0.0
    if resonant and not jittered:
        raise ResonanceError(
            f"t_M = {scheme.t_M} resonant: chain variance diverges without jitter"
        )
    if jittered:  # before any draw: rounding must not set the phase of the longest period
        _phase(params.omega * (scheme.t_M + NORMAL_MAX * scheme.jitter_std), "omega (t_M + 8.21 --jitter-std)")
    # a resonant chain has no limiting width; its histogram takes a generous one
    scale = 10.0 * max(cf.sigma_first, cf.sigma_step, params.sigma_gs) if resonant else cf.sigma_inf
    stats = RunningStats.for_scale(scale)

    k = _scan_warmup(cf.rho)
    chunk = SCAN_CHUNK if k is None else min(SCAN_CHUNK, SCAN_LANES * k)
    m = min(n, chunk)
    x = np.empty(n if keep else min(n, SCAN_CHUNK))
    periods = np.empty(n if keep else m) if jittered else None
    noise, coeffs = np.empty(m), np.empty(m) if jittered else None
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    # PCG64 draws in chunks give the bits of one draw; the noise follows all
    # n periods, so a second generator moved on by n draws reads it per chunk
    noise_rng = np.random.Generator(np.random.PCG64(seed_seq).advance(n)) if jittered else rng
    y, normals = float(cfg.initial.x0), 2 * n if jittered else n
    for start in range(0, n, SCAN_CHUNK):
        stop = min(start + SCAN_CHUNK, n)
        block = slice(start, stop) if keep else slice(0, stop - start)
        for lo in range(start, stop, chunk):
            size = min(chunk, stop - lo)
            part = slice(lo, lo + size) if keep else slice(lo - start, lo - start + size)
            b = _standard_normal(noise_rng, noise[:size], normals)
            eta0 = b[0]
            if jittered:
                t = _standard_normal(rng, periods[part] if keep else periods[:size], normals)
                t *= scheme.jitter_std
                t += scheme.t_M
                np.maximum(t, T_MIN_FRACTION * scheme.t_M, out=t)
                b *= evolved_width(params, scheme.sigma_M, t)
                a = coeffs[:size]
                np.cos(np.multiply(params.omega, t, out=a), out=a)
            else:
                b *= cf.sigma_step
                a = cf.rho
            if lo == 0:  # the first step evolves the initial packet
                b[0] = eta0 * (evolved_width(params, cfg.initial.sigma_x0, t[0]) if jittered else cf.sigma_first)
            y = float(ar1_scan(a, b, y, x[part])[-1])
        stats.push_array(x[block])
    return (MeasurementRecord(samples=x, periods=periods) if keep else None), stats


def run_chain(cfg: ChainConfig, keep: bool = True) -> tuple[MeasurementRecord | None, RunningStats]:
    """Simulate the exact measurement chain; deterministic given cfg.seed.

    With jitter_std > 0 each step evolves for t_i = max(t_min, t_M +
    jitter_std * eta), with the memory coefficient and step width recomputed
    for t_i, and the record carries the periods. Only such a chain may have
    a resonant t_M. Without keep the record is None: memory does not grow with n.
    """
    return _run_chain_seeded(cfg, np.random.SeedSequence(cfg.seed), keep=keep)


# a second name, kept for perfbench's chain_ensemble, which calls it
run_chain_jittered = run_chain


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_ensemble(cfg: ChainConfig, n_chains: int) -> RunningStats:
    """Pooled statistics of n_chains independent chains, seeded by
    SeedSequence(cfg.seed).spawn, on w = min(n_chains, usable CPUs) threads:
    the calling thread and w - 1 helpers, each in a copy of the caller's
    context (so np.errstate holds in every chain). Thread s starts with chain
    s, then takes the next chain not yet started, in index order; after a
    failure no thread takes another. Once every helper has joined, the exact
    merge runs in chain order, and a failing chain raises as in a serial loop."""
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    children = np.random.SeedSequence(cfg.seed).spawn(n_chains)
    # all the chains' normals pick the backend: above the count, scipy.special loads here for every chain
    _special(n_chains * cfg.n_measurements * (2 if cfg.scheme.jitter_std else 1))
    cfg.closed_form  # derived once, before the threads read it: from Python 3.12 cached_property has no lock
    workers = min(n_chains, _usable_cpus())
    results: list = [None] * n_chains  # each chain's statistics or exception
    untaken, lock = iter(range(workers, n_chains)), threading.Lock()
    failed = False

    def take_chains(i: int | None) -> None:
        nonlocal failed
        while i is not None:
            try:
                results[i] = _run_chain_seeded(cfg, children[i], keep=False)[1]
            except Exception as exc:
                results[i] = exc
                failed = True
            with lock:
                i = None if failed else next(untaken, None)

    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(take_chains, s))
        for s in range(1, workers)
    ]
    for helper in helpers:
        helper.start()
    try:
        take_chains(0)
    finally:
        for helper in helpers:
            helper.join()
    pooled = None
    for stats in results:  # a chain left unrun follows a failed one
        if isinstance(stats, Exception):
            raise stats
        pooled = stats if pooled is None else pooled.merge(stats)
    return pooled


def thinning_interval(rho: float) -> int:
    """Smallest k with |rho|^k < THINNING_THRESHOLD; 1 for a memoryless chain."""
    r = abs(rho)
    if r >= 1.0:
        raise ValueError("|rho| must be < 1 to thin to independence")
    if r < THINNING_THRESHOLD:
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
    (see thinning_interval); KS on correlated samples is not valid. Each
    side's maximum is taken over KS_BLOCK values at a time, which gives the
    one-shot maximum exactly.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n < 100:
        raise InsufficientSamples(f"need >= 100 samples for KS, got {n}")
    ndtr, d_plus, d_minus = _special(n).ndtr, -np.inf, -np.inf
    for lo in range(0, n, KS_BLOCK):
        cdf = ndtr(xs[lo:lo + KS_BLOCK] / sigma_target)
        i = np.arange(lo + 1, lo + cdf.size + 1)
        d_plus = np.maximum(d_plus, np.max(i / n - cdf))  # a NaN stays, as in one np.max
        d_minus = np.maximum(d_minus, np.max(cdf - (i - 1) / n))
    return float(max(d_plus, d_minus))


def _pairwise(x: np.ndarray, piece_sum) -> float:
    """np.add.reduce's sum of x, as the sum of piece_sum(p) over its pieces p."""
    if x.size <= STD_PIECE:
        return piece_sum(x)
    half = x.size // 2 - (x.size // 2) % 8
    return _pairwise(x[:half], piece_sum) + _pairwise(x[half:], piece_sum)


def prefix_std(x: np.ndarray) -> float:
    """np.std(x) of a contiguous float64 array, bit for bit, with scratch of at
    most two pieces of STD_PIECE values: np.std's squared deviations, summed
    in pieces."""
    mean = float(np.add.reduce(x)) / x.size
    return math.sqrt(_pairwise(x, lambda piece: float(np.add.reduce(np.square(piece - mean)))) / x.size)
