"""The numpy ports of Cephes ndtri and ndtr against scipy.special's, bit for bit."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special

import qho_measure
from qho_measure import cephes


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert differ.size == 0, f"{differ.size} of {got.size} differ, first at index {differ[:5]}"


def ulps_around(v: float, k: int = 64) -> np.ndarray:
    """v and the k floats on either side of it."""
    down, up = [v], [v]
    for _ in range(k):
        down.append(math.nextafter(down[-1], -math.inf))
        up.append(math.nextafter(up[-1], math.inf))
    return np.array(down[::-1] + up[1:])


def ported_ndtri(y):
    return cephes.ndtri(y, np.empty_like(y))


def test_ndtri_on_pcg64_uniforms():
    # as the chain draws them: PCG64 doubles, floored at 1e-300
    u = np.maximum(np.random.Generator(np.random.PCG64(2024)).random(1 << 22), 1e-300)
    assert_same_bits(ported_ndtri(u), special.ndtri(u))


NDTRI_EDGES = {
    "floor 1e-300": 1e-300,
    "2^-53": 2.0**-53,
    "1 - 2^-53": 1.0 - 2.0**-53,
    "e^-2": cephes.EXP_M2,
    "1 - e^-2": 1.0 - cephes.EXP_M2,
    "e^-32, the x = 8 switch": math.exp(-32.0),
    "1 - e^-32": 1.0 - math.exp(-32.0),
    "1/2": 0.5,
}


@pytest.mark.parametrize("y", list(NDTRI_EDGES.values()), ids=list(NDTRI_EDGES))
def test_ndtri_on_both_sides_of_its_edges(y):
    ys = ulps_around(y)
    ys = ys[(ys > 0.0) & (ys < 1.0)]
    assert_same_bits(ported_ndtri(ys), special.ndtri(ys))


def test_ndtri_in_place():
    y = np.maximum(np.random.Generator(np.random.PCG64(5)).random(10_000), 1e-300)
    want = special.ndtri(y)
    assert cephes.ndtri(y, out=y) is y
    assert_same_bits(y, want)


def test_ndtr_on_normals_and_a_wide_range():
    eta = special.ndtri(np.maximum(np.random.Generator(np.random.PCG64(2025)).random(1 << 22), 1e-300))
    for xs in (eta, 3.0 * eta, np.linspace(-40.0, 40.0, 1 << 20)):
        assert_same_bits(cephes.ndtr(xs), special.ndtr(xs))


NDTR_EDGES = {
    "1/sqrt2": math.sqrt(0.5),
    "1": 1.0,
    "sqrt2": math.sqrt(2.0),
    "8": 8.0,
    "8 sqrt2": 8.0 * math.sqrt(2.0),
    "underflow": math.sqrt(2.0 * cephes.MAXLOG),
    "0": 0.0,
}


@pytest.mark.parametrize("x", list(NDTR_EDGES.values()), ids=list(NDTR_EDGES))
def test_ndtr_on_both_sides_of_its_edges(x):
    xs = ulps_around(x)
    xs = np.concatenate([xs, -xs])
    assert_same_bits(cephes.ndtr(xs), special.ndtr(xs))


def test_ndtr_non_finite():
    xs = np.array([math.inf, -math.inf, 1e300, -1e300, math.nan])
    got = cephes.ndtr(xs)
    assert_same_bits(got[:4], special.ndtr(xs[:4]))
    assert math.isnan(got[4])


def test_import_loads_no_other_package_module():
    # a fresh interpreter's import of the ports loads the package and cephes alone
    src = os.path.dirname(os.path.dirname(qho_measure.__file__))
    script = (
        "import json, sys, qho_measure.cephes\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'qho_measure')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert json.loads(done.stdout) == ["qho_measure", "qho_measure.cephes"]
