"""The bulk samples.csv writer against Python's own float repr and row format."""
import itertools

import numpy as np
import pytest

from qho_measure import cli
from qho_measure.trajectory_sim import run_chain
from qho_measure.csv_rows import float_fields, sample_rows


def _writer_lines(x: np.ndarray) -> bytes:
    fields = float_fields(x)
    newline = np.full((len(x), 1), ord("\n"), np.uint8)
    return np.hstack([fields, newline]).tobytes().translate(None, b"\0")


def assert_same_as_repr(x: np.ndarray, name: str) -> None:
    got = _writer_lines(x)
    want = "".join(f"{v!r}\n" for v in x.tolist()).encode()
    if got != want:
        for v, g in zip(x.tolist(), got.split(b"\n")):
            assert g.decode() == repr(v), f"{name}: bits {np.float64(v).view(np.uint64):#018x}"
        pytest.fail(f"{name}: same lines, different bytes")


def _from_bits(exponent, mantissa, negative) -> np.ndarray:
    bits = (
        (np.asarray(negative, np.uint64) << np.uint64(63))
        | (np.asarray(exponent, np.uint64) << np.uint64(52))
        | np.asarray(mantissa, np.uint64)
    )
    return bits.view(np.float64)


def _neighbours(x) -> np.ndarray:
    """x and the doubles one ulp either side, with both signs."""
    x = np.asarray(x, np.float64)
    around = np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])
    return np.concatenate([around, -around])


def _value_sets(rng) -> dict:
    n = 200_000
    mantissa = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    in_range = _from_bits(rng.integers(1017, 1076, n), mantissa, rng.integers(0, 2, n))
    half_way = (rng.integers(1 << 50, 1 << 51, n // 4) + rng.choice([0.25, 0.75], n // 4)).astype(float)
    return {
        "random 64-bit patterns": rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64),
        "random in-range patterns": in_range,
        "short decimals": rng.integers(-(10**6), 10**6, n) / 10.0 ** rng.integers(0, 17, n),
        "zeros and subnormals": np.concatenate([
            [0.0, -0.0],
            _from_bits(0, rng.integers(1, 1 << 52, 50_000, dtype=np.uint64), rng.integers(0, 2, 50_000)),
        ]),
        "integers up to 2^53": np.concatenate([
            np.arange(0.0, 10_000.0),
            rng.integers(0, (1 << 53) + 1, n // 2).astype(float),
        ]),
        "powers of two": _neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
        "fast-path edges and layout switches": _neighbours([2.0**-6, 2.0**53, 1e-4, 1e16]),
        "halfway between two shortest candidates": np.concatenate([half_way, -half_way]),
        "samples": rng.normal(0.0, 1.0, n),
    }


def test_float_fields_equal_repr():
    sets = _value_sets(np.random.default_rng(2024))
    assert sum(map(len, sets.values())) >= 1_000_000
    for name, x in sets.items():
        assert_same_as_repr(x, name)


def test_ties_go_to_the_even_digit():
    assert _writer_lines(np.array([1125899906842624.25, 1125899906842624.75])) == (
        b"1125899906842624.2\n1125899906842624.8\n"
    )


def test_rows_of_a_chunk():
    x = np.array([0.5, -1e-7, 3.0, 2.0**60])
    want = "".join(map("{},{!r},{}\n".format, range(8, 12), x.tolist(), itertools.repeat("1.25")))
    assert sample_rows(8, x, 1.25) == want.encode()
    t = np.array([1.0, 0.1, 7e22, 1.0000000000000002])
    want = "".join(map("{},{!r},{!r}\n".format, range(99, 103), x.tolist(), t.tolist()))
    assert sample_rows(99, x, t) == want.encode()


@pytest.mark.parametrize("jittered", [False, True], ids=["plain", "jittered"])
@pytest.mark.parametrize("n", [1, 2, cli.CSV_ROWS_PER_WRITE - 1, cli.CSV_ROWS_PER_WRITE + 1])
def test_samples_csv_matches_row_format(tmp_path, n, jittered):
    argv = ["simulate", "--n", str(n), "--seed", "5", "--x0", "0.7", "--out", str(tmp_path)]
    if jittered:
        argv += ["--jitter-std", "0.01"]
    assert cli.main(argv) == 0
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    record, _ = run_chain(cfg.chain)
    if jittered:
        t_eff = map(repr, record.periods.tolist())
    else:
        t_eff = itertools.repeat(repr(float(cfg.t_m)))
    rows = "".join(map("{},{!r},{}\n".format, range(1, n + 1), record.samples.tolist(), t_eff))
    want = f"# qho-measure samples {cli.CSV_VERSION}\nindex,x_M,t_eff\n{rows}"
    assert (tmp_path / "samples.csv").read_bytes() == want.encode()
