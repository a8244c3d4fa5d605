import tracemalloc

import numpy as np
import pytest

from qho_measure.chain_analytics import ChainConfig, MeasurementScheme
from qho_measure.gaussian_core import OscillatorParams, WavePacket

# Reference setup used throughout: omega = 0.707, measure every T/5 with
# sigma_M = 0.5, starting from the ground state at the origin.
REF_SIGMA_INF = 1.4237265835521664


def traced_peak(call) -> int:
    """Peak traced allocation, in bytes, while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def ref_params():
    return OscillatorParams(mass=1.0, omega=0.707, hbar=1.0)


@pytest.fixture
def ref_scheme(ref_params):
    return MeasurementScheme(t_M=0.2 * ref_params.period, sigma_M=0.5)


@pytest.fixture
def ref_packet(ref_params):
    return WavePacket(x0=0.0, sigma_x0=ref_params.sigma_gs)


@pytest.fixture
def ref_config(ref_params, ref_scheme, ref_packet):
    def make(n=1000, seed=12345, jitter_std=0.0):
        scheme = MeasurementScheme(
            t_M=ref_scheme.t_M, sigma_M=ref_scheme.sigma_M, jitter_std=jitter_std
        )
        return ChainConfig(
            params=ref_params,
            scheme=scheme,
            initial=ref_packet,
            n_measurements=n,
            seed=seed,
        )

    return make


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
