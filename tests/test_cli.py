import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import qho_measure
from qho_measure import cli, trajectory_sim
from qho_measure.chain_analytics import ChainClosedForm
from qho_measure.cli import RunConfig, main
from conftest import REF_SIGMA_INF, traced_peak

REFERENCE_SHA256 = Path(__file__).resolve().parents[1] / "perfbench" / "reference_sha256.json"


def strict_json(path):
    """The file's JSON, refusing NaN and Infinity (not JSON, RFC 8259)."""

    def refuse(name):
        raise ValueError(f"non-finite number {name} in {path}")

    return json.loads(path.read_text(), parse_constant=refuse)


def csv_digest(out):
    """SHA-256 over the three CSVs' digests, as perfbench/reference_sha256.json records them."""
    lines = "".join(
        f"{name}:{hashlib.sha256((out / name).read_bytes()).hexdigest()}\n"
        for name in ("samples.csv", "running_std.csv", "histogram.csv")
    )
    return hashlib.sha256(lines.encode()).hexdigest()


def read_csv(path):
    with path.open() as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


# sigma_inf_simplified and varsigma_inf * sigma_gs, the limiting width in
# instrument and in sigma_gs units, agree with sigma_inf = sigma_step / |sin|
# to this relative gap
LIMIT_GAP = 1e-13


def limit_gap(res):
    """The larger relative gap of analyze's two other forms of the limiting width from sigma_inf."""
    sigma_inf = res["sigma_inf"]
    return max(abs(res["sigma_inf_simplified"] / sigma_inf - 1), abs(res["varsigma_inf"] * res["sigma_gs"] / sigma_inf - 1))


class TestAnalyze:
    def test_reference_values(self, tmp_path, capsys):
        rc = main(["analyze", "--out", str(tmp_path / "o")])
        assert rc == 0
        data = json.loads((tmp_path / "o" / "analyze.json").read_text())
        res = data["results"]
        assert abs(res["sigma_inf"] - REF_SIGMA_INF) < 1e-12
        assert abs(res["sigma_inf"] - res["sigma_inf_simplified"]) < 1e-12
        assert abs(res["rho"] - math.cos(2 * math.pi / 5)) < 1e-12
        assert res["optimal_varsigma_m"] is not None
        out = capsys.readouterr().out
        assert "sigma_inf" in out

    # the limiting width is computed in sigma_gs units, so sigma_gs^4 neither
    # underflows (small hbar) nor overflows (large hbar, small omega)
    @pytest.mark.parametrize("argv", [
        ["--hbar", "1e-160", "--varsigma-m", "0.42"],
        ["--hbar", "1e-200", "--varsigma-m", "0.42"],
        ["--hbar", "2.828112e-262", "--varsigma-m", "0.5457487"],
        ["--hbar", "1e160", "--varsigma-m", "0.42"],
        ["--omega", "1e-300"],
    ])
    def test_limit_forms_agree_at_extreme_scales(self, tmp_path, argv):
        assert main(["analyze", *argv, "--out", str(tmp_path)]) == 0
        assert limit_gap(strict_json(tmp_path / "analyze.json")["results"]) <= LIMIT_GAP

    def test_resonance_exit_code(self, tmp_path):
        rc = main(["analyze", "--tau-m", "0.5", "--out", str(tmp_path / "o")])
        assert rc == 4

    def test_conflicting_pair_exit_code(self, tmp_path):
        rc = main(
            ["analyze", "--tau-m", "0.2", "--t-m", "99.0", "--out", str(tmp_path / "o")]
        )
        assert rc == 3

    def test_consistent_pair_accepted(self, tmp_path):
        t_m = 0.2 * 2 * math.pi / 0.707
        rc = main(
            ["analyze", "--tau-m", "0.2", "--t-m", repr(t_m), "--out", str(tmp_path / "o")]
        )
        assert rc == 0


class TestSimulate:
    def test_outputs_and_summary(self, tmp_path, ref_params, ref_scheme, ref_packet):
        out = tmp_path / "sim"
        rc = main(["simulate", "--n", "20000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        for name in ("samples.csv", "running_std.csv", "histogram.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_samples"] == 20000
        assert abs(summary["sigma_inf_predicted"] - REF_SIGMA_INF) < 1e-12
        assert summary["relative_error"] < 0.05
        assert summary["thinning_interval"] == 3
        rho = ChainClosedForm.from_setup(ref_params, ref_scheme, ref_packet).rho
        n_eff = 20000 * (1 - rho**2) / (1 + rho**2)
        se = summary["sigma_inf_predicted"] / math.sqrt(2 * n_eff)
        assert abs(summary["sample_std_se"] - se) <= 1e-12 * se
        assert abs(summary["sample_std_z"]) <= 5
        header, rows = read_csv(out / "samples.csv")
        assert header == ["index", "x_M", "t_eff"]
        assert len(rows) == 20000
        header, rows = read_csv(out / "histogram.csv")
        assert header == ["bin_lo", "bin_hi", "count", "density", "analytic"]
        total = sum(int(r[2]) for r in rows)
        assert total + summary["histogram_underflow"] + summary["histogram_overflow"] == 20000

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--n", "5000", "--seed", "42", "--out", str(out)]) == 0
        for name in ("samples.csv", "running_std.csv", "histogram.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("seed", (0, 1, 255))
    @pytest.mark.parametrize("task,jitter", [("simulate_s", ()), ("simulate_jitter_s", ("--jitter-std", "0.01"))])
    def test_outputs_match_recorded_sha256(self, tmp_path, task, jitter, seed):
        # the byte-identical CSV contract, against the benchmark's references
        out = tmp_path / "o"
        argv = ["simulate", "--n", "500000", *jitter, "--seed", str(seed), "--out", str(out)]
        assert main(argv) == 0
        assert csv_digest(out) == json.loads(REFERENCE_SHA256.read_text())[task][str(seed)]

    # the grid engine's CSV bytes at seed 3, recorded with numpy 2.4.6
    GRID_SHA256 = {
        ("--n", "200"): {
            "samples.csv": "2184a2e68ae9782731dc80533df48ce6c3a75f98aee46d4966aeba525182b47a",
            "running_std.csv": "8423a9bcb1bad85b69c624494bb559ecddbf3676d4164b8e89c42c4d627976d7",
            "histogram.csv": "6ec09193d010655c683fd25680777c92ba33c4c974daf0f91af38c23621d702c",
        },
        ("--collapse", "weak", "--n", "8"): {
            "samples.csv": "891a38c575dee24958d7a1319307e0b1f47ac1fadd46bbc68dd6afa294cd1ce7",
            "running_std.csv": "4770cef51a75a0b7d882b3cd9064e9c30444a52e717fcfef42776ef04fff71c6",
            "histogram.csv": "44e1dba6ac86971aefa107939926665ca510acbe563552ac4dd0d1864b71476b",
        },
    }

    @pytest.mark.parametrize("argv", list(GRID_SHA256), ids=["replace_n200", "weak_n8"])
    def test_grid_outputs_match_recorded_sha256(self, tmp_path, argv):
        out = tmp_path / "o"
        assert main(["simulate", "--engine", "grid", *argv, "--seed", "3", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.GRID_SHA256[argv]}
        assert digests == self.GRID_SHA256[argv]

    def test_rerun_from_echoed_config(self, tmp_path):
        first = tmp_path / "first"
        assert main(["simulate", "--n", "3000", "--seed", "17", "--out", str(first)]) == 0
        echo = json.loads((first / "summary.json").read_text())["config"]
        cfg_path = tmp_path / "echo.json"
        cfg_path.write_text(json.dumps(echo))
        second = tmp_path / "second"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(second)])
        assert rc == 0
        assert (first / "samples.csv").read_bytes() == (second / "samples.csv").read_bytes()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QHO_SEED", "77")
        a = tmp_path / "a"
        assert main(["simulate", "--n", "2000", "--out", str(a)]) == 0
        monkeypatch.delenv("QHO_SEED")
        b = tmp_path / "b"
        assert main(["simulate", "--n", "2000", "--seed", "77", "--out", str(b)]) == 0
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tau_m": 0.2, "sigma_m": 0.5, "n": 1500, "seed": 5}))
        out = tmp_path / "o"
        rc = main(
            ["simulate", "--config", str(cfg_path), "--tau-m", "0.1", "--out", str(out)]
        )
        assert rc == 0
        echo = json.loads((out / "summary.json").read_text())["config"]
        assert abs(echo["tau_m"] - 0.1) < 1e-15
        assert echo["n"] == 1500

    def test_single_sample_degenerate(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["simulate", "--n", "1", "--seed", "1", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sample_std"] is None
        assert summary["ks_statistic"] is None
        assert summary["sample_std_se"] is None and summary["sample_std_z"] is None
        _, rows = read_csv(out / "running_std.csv")
        assert rows == [["1", ""]]

    def test_failed_write_leaves_no_partial_outputs(self, tmp_path):
        # histogram.csv cannot be opened: the two CSVs before it are removed
        out = tmp_path / "o"
        (out / "histogram.csv").mkdir(parents=True)
        assert main(["simulate", "--n", "10", "--out", str(out)]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["histogram.csv"]

    def test_overflow_creates_no_output_directory(self, tmp_path):
        # the running std is known finite before --out is created
        out = tmp_path / "o"
        assert main(["simulate", "--x0", "1e300", "--n", "5", "--out", str(out)]) == 4
        assert not out.exists()

    def test_jittered_run(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            ["simulate", "--n", "5000", "--seed", "2", "--jitter-std", "0.01",
             "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv(out / "samples.csv")
        t_effs = {r[2] for r in rows[:100]}
        assert len(t_effs) > 1  # per-step effective periods vary
        # sigma_inf is the unjittered width, so the chain has no z against it
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sample_std_se"] is None and summary["sample_std_z"] is None

    def test_grid_engine_small_run(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            ["simulate", "--engine", "grid", "--n", "40", "--seed", "6",
             "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv(out / "samples.csv")
        assert len(rows) == 40

    def test_weak_grid_chain_has_no_std_z(self, tmp_path):
        # weak collapse heats the oscillator (criterion 12): not stationary
        out = tmp_path / "o"
        rc = main(
            ["simulate", "--engine", "grid", "--collapse", "weak", "--n", "8", "--seed", "6",
             "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sample_std"] is not None and summary["sigma_inf_predicted"] is not None
        assert summary["sample_std_se"] is None and summary["sample_std_z"] is None


class TestSweep:
    def test_tau_sweep_flags_resonances(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            ["sweep", "--sweep-tau", "0.05", "1.0", "20", "--varsigma-m", "0.5",
             "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["varsigma_M", "tau_M", "varsigma_inf", "flag"]
        assert len(rows) == 20
        flags = [r[3] for r in rows]
        assert flags.count("resonant") == 2  # tau = 0.5 and 1.0 on this axis
        assert all(f in ("ok", "resonant") for f in flags)

    def test_varsigma_minimum_location(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            ["sweep", "--sweep-varsigma", "0.3", "1.2", "91", "--tau-m", "0.125",
             "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv(out / "sweep.csv")
        vals = [(float(r[0]), float(r[2])) for r in rows]
        best = min(vals, key=lambda p: p[1])
        assert abs(best[0] - 1.0 / math.sqrt(2.0)) < 0.01
        assert abs(best[1] - 1.0) < 1e-4

    @pytest.mark.parametrize("axes,flags", [
        (["--sweep-varsigma", "1e-160", "1e200", "3", "--log-varsigma"], ["domain", "ok", "domain"]),
        (["--sweep-tau", "0.1", "0.2", "2", "--sweep-varsigma", "1e-200", "1", "2", "--log-varsigma"],
         ["domain", "ok", "domain", "ok"]),
    ])
    def test_points_outside_float_range_flagged_domain(self, tmp_path, axes, flags):
        # varsigma_M^2 overflows, or underflows to 0, in the closed form
        out = tmp_path / "o"
        assert main(["sweep", *axes, "--out", str(out)]) == 0
        _, rows = read_csv(out / "sweep.csv")
        assert [r[3] for r in rows] == flags
        assert all(r[2] == "" for r in rows if r[3] == "domain")
        assert all(math.isfinite(float(field)) for r in rows for field in r[:3] if field)

    def test_tau_whose_angle_is_set_by_rounding_flagged_domain(self, tmp_path):
        # 2 pi tau_M passes 2^23 rad, where its float spacing exceeds EPS_RES
        out = tmp_path / "o"
        assert main(["sweep", "--sweep-tau", "1e6", "1e8", "3", "--log-tau", "--out", str(out)]) == 0
        _, rows = read_csv(out / "sweep.csv")
        assert [r[3] for r in rows] == ["resonant", "domain", "domain"]

    def test_rho_rounded_to_one_is_resonant(self, tmp_path):
        # |sin(2 pi tau_M)| > EPS_RES, but rho rounds to -1 and to +1: the
        # rows are resonant, as analyze and simulate exit 4 on these setups
        out = tmp_path / "o"
        assert main(["sweep", "--sweep-tau", "0.5000000008", "1e-9", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out / "sweep.csv")
        assert [(r[1], r[2], r[3]) for r in rows] == [("0.5000000008", "", "resonant"), ("1e-09", "", "resonant")]

    def test_failed_write_leaves_no_partial_sweep(self, tmp_path, monkeypatch, capsys):
        # the rows stream into sweep.csv; a row that fails removes the file
        row = cli._sweep_row
        calls = []

        def failing_row(vs, tau):
            calls.append(tau)
            if len(calls) > 5:
                raise MemoryError
            return row(vs, tau)

        monkeypatch.setattr(cli, "_sweep_row", failing_row)
        out = tmp_path / "o"
        assert main(["sweep", "--sweep-tau", "0.1", "0.4", "10", "--out", str(out)]) == 3
        assert not (out / "sweep.csv").exists()
        # --n sizes nothing in a sweep, so the message does not name it
        assert "--n" not in capsys.readouterr().err

    def test_missing_axes_is_config_error(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("lo,hi,count", [
        ("0.3", "1.2", "91"), ("0.05", "1.05", "81"), ("-3.7", "11.2", "301"), ("2", "3", "2"),
        ("1.2", "0.3", "17"), ("0.7", "0.7", "5"), ("-0.0", "0.0", "3"),
        ("-1e300", "1e300", "9"), ("1e300", "-1e300", "10"), ("1e300", "1.0000000000000002e300", "4"),
        ("-1.5e308", "1.7e308", "6"), ("1.7e308", "-1.5e308", "3"),
        ("5e-324", "1e-323", "7"), ("1e-300", "3e-300", "1000"),
    ])
    def test_linear_axis_has_linspace_bits(self, lo, hi, count):
        axis = cli._axis("--sweep-tau", (lo, hi, count), False, None)
        assert axis.typecode == "d" and len(axis) == int(count)
        with np.errstate(all="ignore"):  # an overflowing hi - lo makes linspace's first point NaN
            assert axis.tobytes() == np.linspace(float(lo), float(hi), int(count)).tobytes()

    def test_axis_whose_span_overflows_flagged_domain(self, tmp_path):
        # hi - lo overflows: the first point is 0 * inf + lo, NaN, as in np.linspace
        out = tmp_path / "o"
        assert main(["sweep", "--sweep-varsigma", "-1e308", "1e308", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out / "sweep.csv")
        assert [(r[0], r[2], r[3]) for r in rows] == [("nan", "", "domain"), ("inf", "", "domain"), ("1e+308", "", "domain")]


class TestValidate:
    def test_battery_passes_on_defaults(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["validate", "--n", "60000", "--out", str(out)])
        assert rc == 0
        data = strict_json(out / "validate.json")
        assert all(c["passed"] for c in data["checks"])
        assert len(data["checks"]) >= 6
        for c in data["checks"]:
            assert c["margin"] == c["measured"] / c["tolerance"]
            assert 0.0 <= c["margin"] <= 1.0

    def test_records_grid_n(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["validate", "--n", "2000", "--grid-n", "1024", "--out", str(out)])
        assert rc in (0, 2)
        assert strict_json(out / "validate.json")["grid_n"] == 1024

    def test_non_finite_error_is_null(self, tmp_path, capsys):
        # the chain's outcomes are finite but their squares overflow: the
        # check fails as a crash does, with null values, and names the value
        out = tmp_path / "o"
        assert main(["validate", "--x0", "1e300", "--n", "1000", "--out", str(out)]) == 2
        data = strict_json(out / "validate.json")
        (chain,) = [c for c in data["checks"] if c["name"] == "chain_vs_sigma_inf"]
        assert not chain["passed"] and chain["measured"] is None and chain["margin"] is None
        assert "measured error is nan" in chain["detail"]
        assert "measured error is nan" in capsys.readouterr().out

    def test_rho_rounded_to_one_is_resonant(self, tmp_path):
        # |sin(omega t_M)| ~ 5e-9 > EPS_RES, but rho rounds to -1.0, so that
        # 1 - rho^2 is 0: the chain checks are resonant, not a division by 0
        out = tmp_path / "o"
        assert main(["validate", "--tau-m", "0.5000000008", "--n", "1000", "--out", str(out)]) == 2
        crashed = {c["name"]: c["detail"] for c in strict_json(out / "validate.json")["checks"] if c["measured"] is None}
        assert {"chain_vs_sigma_inf", "partial_sum_identity"} <= crashed.keys()
        for detail in crashed.values():
            assert "ZeroDivisionError" not in detail
        assert crashed["partial_sum_identity"].startswith("ResonanceError")

    def test_designed_failure_exit_code(self, tmp_path, capsys):
        # a 256-point grid cannot resolve the instrument width
        out = tmp_path / "o"
        rc = main(["validate", "--n", "60000", "--grid-n", "256", "--out", str(out)])
        assert rc == 2
        data = strict_json(out / "validate.json")
        assert any(not c["passed"] for c in data["checks"])
        assert "FAIL" in capsys.readouterr().out
        crashed = [c for c in data["checks"] if c["measured"] is None]
        assert crashed and all(c["margin"] is None for c in crashed)
        for c in data["checks"]:
            if c["measured"] is not None:
                assert c["margin"] == c["measured"] / c["tolerance"]
                assert (c["margin"] <= 1.0) == c["passed"]


def test_running_std_scratch_does_not_grow_with_the_record(rng):
    # np.std of each prefix took a copy of it, 16 MiB for the last of 2^21
    # samples; in pieces (trajectory_sim.prefix_std) the scratch is 256 KiB
    samples = rng.standard_normal(1 << 21)
    running = cli._running_std(samples)  # warms the code paths untraced
    assert [(k, None if std is None else std.hex()) for k, std in running] == [
        (k, float(np.std(samples[:k])).hex() if k > 1 else None) for k, _ in running
    ]
    assert running[-1][0] == samples.size and len(running) > 150
    assert traced_peak(lambda: cli._running_std(samples)) <= 1 << 20


def test_simulate_out_of_memory_names_n(tmp_path, monkeypatch, capsys):
    def no_memory(cfg):
        raise MemoryError

    monkeypatch.setattr(trajectory_sim, "run_chain", no_memory)  # cmd_simulate imports it when it runs
    assert main(["simulate", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "configuration error: not enough memory for this run; lower --n\n"
    assert not (tmp_path / "o").exists()


@pytest.fixture
def setup_counts(monkeypatch):
    """The ChainConfigs the CLI builds and the setups ChainClosedForm.from_setup
    derives a closed form for, as they happen."""
    built, derived = [], []
    chain_config, from_setup = cli.ChainConfig, ChainClosedForm.from_setup.__func__

    def counting_chain_config(*args, **kwargs):
        built.append(chain_config(*args, **kwargs))
        return built[-1]

    def counting_from_setup(cls, params, scheme, initial):
        derived.append((params, scheme, initial))
        return from_setup(cls, params, scheme, initial)

    monkeypatch.setattr(cli, "ChainConfig", counting_chain_config)
    monkeypatch.setattr(ChainClosedForm, "from_setup", classmethod(counting_from_setup))
    return built, derived


@pytest.mark.parametrize("argv,code", [
    (["analyze"], 0),
    (["simulate", "--n", "1000"], 0),
    (["simulate", "--engine", "grid", "--n", "5"], 0),
    (["validate", "--n", "2000"], 2),
], ids=["analyze", "simulate", "simulate-grid", "validate"])
def test_setup_built_and_derived_once(tmp_path, setup_counts, argv, code):
    # resolve_config builds the run's ChainConfig, and every command, engine
    # and check reads its one closed form
    built, derived = setup_counts
    assert main([*argv, "--out", str(tmp_path / "o")]) == code
    (chain,) = built
    own = (chain.params, chain.scheme, chain.initial)
    assert derived.count(own) == 1
    if argv[0] != "validate":  # whose quadrature check derives 20 setups of its own
        assert derived == [own]


class _ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv,record,code", [
    (["analyze"], "analyze.json", 0),
    (["simulate", "--n", "10"], "summary.json", 0),
    # 2000 samples are too few for chain_vs_sigma_inf's 1%: the battery fails
    (["validate", "--n", "2000"], "validate.json", 2),
    (["sweep", "--sweep-tau", "0.1", "0.4", "7"], "sweep.csv", 0),
], ids=["analyze", "simulate", "validate", "sweep"])
def test_closed_stdout_keeps_the_json(tmp_path, monkeypatch, argv, record, code):
    # the files are written before anything is printed, and the exit code
    # is the run's own
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == code
    if record == "sweep.csv":  # no JSON: every row is there
        assert len(read_csv(out / record)[1]) == 7
    else:
        assert strict_json(out / record)["config"]["out"] == str(out)


def test_printed_lines(tmp_path, capsys):
    # the exact lines main prints for each command's default run
    out = tmp_path / "o"

    def lines(argv):
        assert main([*argv, "--out", str(out)]) == 0
        return capsys.readouterr().out.splitlines()

    keys = ["sigma_inf", "sigma_inf_simplified", "varsigma_inf", "sigma_step", "sigma_first",
            "sigma_gs", "rho", "period", "optimal_varsigma_m"]
    printed = lines(["analyze"])
    results = strict_json(out / "analyze.json")["results"]
    assert printed == [f"{key} = {results[key]}" for key in keys]

    printed = lines(["simulate", "--n", "1000", "--seed", "7"])
    summary = strict_json(out / "summary.json")
    assert printed == [
        f"wrote 4 files to {out}",
        f"sample std = {summary['sample_std']:.6g}, sigma_inf = 1.42373",
    ]

    assert lines(["sweep", "--sweep-tau", "0.1", "0.4", "3"]) == [f"wrote {out / 'sweep.csv'}"]

    printed = lines(["validate", "--n", "60000"])
    checks = strict_json(out / "validate.json")["checks"]
    assert len(printed) == len(checks) == 7
    for line, c in zip(printed, checks):
        head = f"PASS {c['name']}: measured {c['measured']:.3e} vs tolerance {c['tolerance']:.3e}"
        assert line == head + (f" ({c['detail']})" if c["detail"] else "")


def test_negative_values_with_exponents_reach_their_flags(tmp_path):
    # argparse's own negative-number pattern has no exponent: each of these
    # values was taken for an unknown flag, and the run exited 3
    assert main(["simulate", "--x0", "-1e-3", "--n", "10", "--out", str(tmp_path / "s")]) == 0
    assert strict_json(tmp_path / "s" / "summary.json")["config"]["x0"] == -1e-3
    assert main(["sweep", "--sweep-tau", "-1e-3", "0.2", "5", "--out", str(tmp_path / "w")]) == 0
    _, rows = read_csv(tmp_path / "w" / "sweep.csv")
    assert [float(r[1]) for r in rows] == [-1e-3, 0.04925, 0.0995, 0.14975, 0.2]


@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep", "validate"])
def test_negative_infinity_is_refused_by_the_value_parser(tmp_path, capsys, command):
    # -inf reaches --x0's own parser, not argparse's "expected one argument"
    assert main([command, "--x0", "-inf", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "configuration error: --x0: expected a finite number, got '-inf'\n"


# The exit-code contract, over seeded random argv for the four commands: each
# float field at its default scale, anywhere in the float range or at its
# edges, and now and then negative, written with an exponent as %e writes it
# (-1.234560e-03); the discrete flags now and then out of their range.
CONTRACT_FLOATS = {"--mass": 1.0, "--omega": 0.707, "--hbar": 1.0, "--tau-m": 0.2, "--varsigma-m": 0.6,
                   "--jitter-std": 0.01, "--x0": 1.0, "--sigma-x0": 0.8}
CONTRACT_TWINS = {"--tau-m": ("--t-m", 2 * math.pi / 0.707), "--varsigma-m": ("--sigma-m", 1 / math.sqrt(0.707))}
CONTRACT_KEYS = "|".join(f.name for f in fields(RunConfig))
CONTRACT_EDGES = ("0", "-0.0", "inf", "-inf", "nan", "1.7976931348623157e308", "-1.7976931348623157e+308",
                  "5e-324", "-5e-324")


def contract_float(rng, scale, p_negative=0.05):
    kind = rng.random()
    if kind < 0.05:
        return str(rng.choice(CONTRACT_EDGES))
    sign = -1.0 if rng.random() < p_negative else 1.0
    if kind < 0.25:
        return f"{sign * 10.0 ** rng.uniform(-308, 308):e}"
    return f"{sign * scale * rng.uniform(0.5, 2.0):e}"


def contract_argv(rng, out):
    """(command, argv) for one run, with a small --n (never the default
    500000, which a grid simulate would take minutes over) and --grid-n."""

    def pick(valid, invalid):
        return str(rng.choice(invalid if rng.random() < 0.05 else valid))

    command = str(rng.choice(["analyze", "simulate", "sweep", "validate"], p=[0.3, 0.3, 0.3, 0.1]))
    argv = [command, "--out", str(out), "--n", pick(["1", "2", "37", "300"], ["0", "-1e2", "1e2"])]
    for flag, scale in CONTRACT_FLOATS.items():
        if rng.random() < 0.3:
            value = contract_float(rng, scale, p_negative=0.5 if flag == "--x0" else 0.05)
            if flag in CONTRACT_TWINS and rng.random() < 0.5:  # the dimensional twin at the default oscillator
                flag, unit = CONTRACT_TWINS[flag]
                value = f"{float(value) * unit:e}"
            argv += [flag, value]
    if rng.random() < 0.3:
        argv += ["--seed", pick(["0", "7", "4294967295"], ["-1", "-1e3"])]
    if rng.random() < 0.3:
        argv += ["--engine", pick(["chain", "grid"], ["gpu"])]
    if rng.random() < 0.2:
        argv += ["--collapse", str(rng.choice(["replace", "weak"]))]
    if command == "sweep":
        for axis in ("--sweep-tau", "--sweep-varsigma"):
            if rng.random() < 0.7:
                argv += [axis, contract_float(rng, 0.1, 0.3), contract_float(rng, 1.0, 0.1), pick(["2", "5", "17"], ["1", "-1e1"])]
        argv += [flag for flag in ("--log-tau", "--log-varsigma") if rng.random() < 0.3]
    if command == "validate":
        argv += ["--grid-n", pick(["256", "512"], ["300", "-1e3"])]
    return command, argv


def test_exit_code_contract_on_random_argv(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QHO_SEED", raising=False)
    rng = np.random.default_rng(20261020)
    codes = {}
    for i in range(200):
        out = tmp_path / f"run{i}"
        command, argv = contract_argv(rng, out)
        code = main(argv)  # an uncaught exception fails the test here
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4) and "Traceback" not in err, (argv, code, err)
        assert code != 2 or command == "validate", argv
        if code == 3:  # the message names a flag of its argv, a config key or QHO_SEED;
            # a sweep given no axis names the axis flags it needs
            needed = ["--sweep-tau", "--sweep-varsigma"] if command == "sweep" else []
            flags = "|".join(re.escape(token) for token in argv + needed if token.startswith("--"))
            assert re.search(rf"(?:{flags})\b|\b(?:{CONTRACT_KEYS}|QHO_SEED)\b", err), (argv, err)
        for path in out.glob("*.json"):
            strict_json(path)
        if command == "analyze" and code == 0:  # exit 0 means right: the three forms of the limit agree
            assert limit_gap(strict_json(out / "analyze.json")["results"]) <= LIMIT_GAP, argv
        codes.setdefault(command, set()).add(code)
    # every command ran to the end at least once, and every exit code came up
    assert all(0 in seen for seen in codes.values()) and set().union(*codes.values()) == {0, 2, 3, 4}, codes


# Bad inputs: (argv, config-file object or None, QHO_SEED or None, exit code).
# Malformed or non-finite values exit 3 from a flag, the config file or the
# environment alike; values whose closed forms or outcomes leave float range
# exit 4.
BAD_INPUTS = [
    (["analyze", "--sigma-x0", "nan"], None, None, 3),
    (["simulate", "--n", "10", "--jitter-std", "nan"], None, None, 3),
    (["simulate", "--n", "10", "--x0", "inf"], None, None, 3),
    (["simulate"], {"n": "abc"}, None, 3),
    (["simulate", "--n", "10"], {"seed": "x"}, None, 3),
    (["simulate", "--n", "10"], None, "abc", 3),
    (["simulate"], {"n": 2.7}, None, 3),
    (["analyze"], {"tau_m": True}, None, 3),
    (["simulate", "--n", "abc"], None, None, 3),
    (["simulate", "--n", "10", "--engine", "foo"], None, None, 3),
    (["sweep", "--sweep-tau", "0.1", "0.4", "abc"], None, None, 3),
    (["sweep", "--sweep-tau", "0.1", "0.4", "2.5"], None, None, 3),
    (["validate", "--grid-n", "100"], None, None, 3),
    # the battery's tolerances are fixed: a tolerance flag is a usage error
    (["validate", "--weak-gap-tol", "nan"], None, None, 3),
    # 2 pi / omega, the period, overflows
    (["analyze", "--omega", "1e-308"], None, None, 4),
    (["analyze", "--omega", "1e300"], None, None, 4),
    (["simulate", "--n", "1000", "--jitter-std", "1e308"], None, None, 4),
    # fails at allocation at once; sizes that could be allocated are not tried
    (["simulate", "--n", "100000000000"], None, None, 3),
    (["analyze", "--out", "/dev/null/x"], None, None, 3),
    (["simulate", "--n", "10", "--out", "/dev/null/x"], None, None, 3),
    # usage errors: exit 2 would read as a validation failure
    (["simulate", "--bogus"], None, None, 3),
    (["simulate", "--x0", "-inf"], None, None, 3),
    # the grid engine evolves for exactly t_M; it has no jittered period
    (["simulate", "--engine", "grid", "--n", "3", "--jitter-std", "0.5"], None, None, 3),
    # sigma_inf ~ 50 sigma_gs stretches the default grid past resolving the packets
    (["simulate", "--engine", "grid", "--n", "3", "--varsigma-m", "0.01"], None, None, 4),
    (["simulate", "--engine", "grid", "--n", "3", "--tau-m", "0.5", "--varsigma-m", "0.01"],
     None, None, 4),
    # a log axis needs both bounds positive, MAX as well as MIN
    (["sweep", "--sweep-varsigma", "1", "0", "5", "--log-varsigma"], None, None, 3),
    (["sweep", "--sweep-tau", "0.1", "0", "5", "--log-tau"], None, None, 3),
    (["sweep", "--sweep-varsigma", "1", "-2", "5", "--log-varsigma"], None, None, 3),
    # an unjittered chain at resonance has no limiting width
    (["simulate", "--n", "10", "--tau-m", "0.5"], None, None, 4),
    # the default grid's extent cannot hold a replacement packet (8 sigma_M)
    (["simulate", "--engine", "grid", "--tau-m", "0.5", "--varsigma-m", "2", "--n", "3"],
     None, None, 4),
    (["simulate", "--engine", "grid", "--varsigma-m", "6", "--n", "3"], None, None, 4),
    # nor the initial packet (|x0| + 8 sigma_x0)
    (["simulate", "--engine", "grid", "--x0", "40", "--n", "3"], None, None, 4),
    # the chain engine samples replace chains only
    (["simulate", "--n", "10", "--collapse", "weak"], None, None, 3),
    # a weak collapse needs the evolved initial packet wider than sigma_M
    (["simulate", "--engine", "grid", "--collapse", "weak", "--varsigma-m", "6", "--n", "3"],
     None, None, 4),
    (["simulate", "--engine", "grid", "--collapse", "weak", "--tau-m", "0.5", "--varsigma-m", "2",
      "--n", "3"], None, None, 4),
    # the closed forms hold for replace chains; a weak chain has no limit
    (["analyze", "--collapse", "weak"], None, None, 3),
    (["sweep", "--sweep-tau", "0.1", "0.4", "3"], {"collapse": "weak"}, None, 3),
    # 1 / (4 u^2), u = sigma_M / sigma_gs, overflows in both closed forms of the limit
    (["analyze", "--sigma-m", "1e-160"], None, None, 4),
    # finite outcomes whose squares overflow in the sample std
    (["simulate", "--sigma-m", "1e-160", "--n", "5"], None, None, 4),
    (["simulate", "--x0", "1e300", "--n", "5"], None, None, 4),
    # the closed forms and the battery's limit are those of unjittered chains
    (["analyze", "--jitter-std", "0.5"], None, None, 3),
    (["sweep", "--sweep-tau", "0.1", "0.4", "3", "--jitter-std", "0.5"], None, None, 3),
    (["validate", "--jitter-std", "1.0", "--n", "100000"], None, None, 3),
    # omega t_M so large that rounding sets its phase, and with it rho
    (["analyze", "--t-m", "1e300"], None, None, 4),
    (["simulate", "--n", "5", "--t-m", "1e300"], None, None, 4),
    # rho rounds to -1 and to +1, while |sin(omega t_M)| > EPS_RES: resonant
    (["simulate", "--tau-m", "0.5000000008", "--n", "150"], None, None, 4),
    (["simulate", "--tau-m", "1e-9", "--n", "1000"], None, None, 4),
    # the battery checks unjittered replace chains
    (["validate", "--collapse", "weak", "--n", "2000"], None, None, 3),
    # no period exceeds t_M + 8.21 jitter_std, and rounding sets its phase
    (["simulate", "--n", "100", "--jitter-std", "1e300"], None, None, 4),
    # a config file that is not a JSON object of known keys with valid values
    (["analyze"], [1], None, 3),
    (["analyze"], {"bogus": 1}, None, 3),
    (["analyze"], {"out": 5}, None, 3),
    (["sweep", "--sweep-tau", "0.1", "0.4", "1"], None, None, 3),
    # values outside their field's range
    (["analyze", "--tau-m", "-0.2"], None, None, 3),
    (["analyze", "--sigma-m", "0"], None, None, 3),
    (["simulate", "--n", "10", "--jitter-std", "-1"], None, None, 3),
    (["analyze", "--mass", "0"], None, None, 3),
    (["analyze", "--sigma-x0", "0"], None, None, 3),
    (["simulate", "--n", "0"], None, None, 3),
    (["simulate", "--n", "10", "--seed", "-1"], None, None, 3),
    # grid setups that fail during the run exit as those refused before it:
    # the weak chain heats the oscillator and leaves its grid at step 115, and
    # a replacement packet centred on an outcome does not fit the default grid
    (["simulate", "--engine", "grid", "--collapse", "weak", "--n", "300"], None, None, 4),
    (["simulate", "--engine", "grid", "--tau-m", "0.5", "--varsigma-m", "1.2", "--n", "50"], None, None, 4),
    # jittered periods near multiples of T/2 overflow the step width: the
    # outcomes themselves leave float range
    (["simulate", "--varsigma-m", "7.4e76", "--jitter-std", "0.9", "--n", "2000"], None, None, 4),
]


def run_cli(tmp_path, argv, config=None):
    """main() with --out under tmp_path, unless argv names one, and an
    optional config file."""
    if "--out" not in argv:
        argv = [*argv, "--out", str(tmp_path / "o")]
    if config is not None:
        tmp_path.mkdir(parents=True, exist_ok=True)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    return main(argv)


@pytest.mark.parametrize("argv,config,env_seed,code", BAD_INPUTS)
def test_bad_input_exit_code(tmp_path, capsys, monkeypatch, argv, config, env_seed, code):
    if env_seed is None:
        monkeypatch.delenv("QHO_SEED", raising=False)
    else:
        monkeypatch.setenv("QHO_SEED", env_seed)
    assert run_cli(tmp_path, argv, config) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    # no output file and no --out directory: only the config file is left
    assert sorted(tmp_path.rglob("*")) == ([] if config is None else [tmp_path / "cfg.json"]), err


# A range error is led by the flag and config key that set the field, of a
# twin pair the one given, or by QHO_SEED.
@pytest.mark.parametrize("argv,config,env_seed,message", [
    (["analyze", "--varsigma-m", "0"], None, None, "--varsigma-m/varsigma_m: sigma_M must be > 0"),
    (["analyze", "--sigma-m", "-1"], None, None, "--sigma-m/sigma_m: sigma_M must be > 0"),
    (["analyze", "--tau-m", "0"], None, None, "--tau-m/tau_m: t_M must be > 0"),
    (["analyze"], {"t_m": -1.0}, None, "--t-m/t_m: t_M must be > 0"),
    (["simulate", "--n", "0"], None, None, "--n/n: n_measurements must be >= 1"),
    (["analyze", "--omega", "0"], None, None, "--omega/omega: omega must be > 0"),
    (["analyze"], {"sigma_x0": 0.0}, None, "--sigma-x0/sigma_x0: sigma_x0 must be > 0"),
    (["analyze"], {"seed": -1}, None, "--seed/seed: seed must be >= 0"),
    (["analyze"], None, "-1", "QHO_SEED: seed must be >= 0"),
    (["sweep", "--sweep-tau", "0.1", "0.4", "1"], None, None, "--sweep-tau: COUNT must be >= 2, got 1"),
    (["sweep", "--sweep-varsigma", "1", "0", "5", "--log-varsigma"], None, None,
     "--sweep-varsigma: a log-spaced axis needs MIN and MAX > 0, got 1.0 and 0.0"),
])
def test_range_error_names_its_setting(tmp_path, capsys, monkeypatch, argv, config, env_seed, message):
    monkeypatch.delenv("QHO_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("QHO_SEED", env_seed)
    assert run_cli(tmp_path, argv, config) == 3
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_unparseable_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{")
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def field_values(f):
    """A valid and a malformed value of RunConfig field f, each as
    (flag text, config-file value)."""
    if "choices" in f.metadata:
        good = f.metadata["choices"][-1]
        return (good, good), ("foo", "foo")
    return {"float": (("0.3", 0.3), ("nan", math.nan)), "int": (("7", 7), ("2.5", 2.5))}[f.type]


@pytest.mark.parametrize("f", fields(RunConfig), ids=lambda f: f.name)
def test_each_field_is_flag_and_config_key(tmp_path, f):
    flag = "--" + f.name.replace("_", "-")
    if f.name == "out":
        # any string names a directory, so no value is malformed in both forms
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"out": str(tmp_path / "key")}))
        assert main(["analyze", flag, str(tmp_path / "flag")]) == 0
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "flag" / "analyze.json").exists()
        assert (tmp_path / "key" / "analyze.json").exists()
        return
    (good_flag, good_key), (bad_flag, bad_key) = field_values(f)
    # analyze refuses a weak collapse, which only a grid simulate samples,
    # and jitter, which only a chain simulate samples
    command, record = ["analyze"], "analyze.json"
    if f.name == "collapse":
        command, record = ["simulate", "--engine", "grid", "--n", "2"], "summary.json"
    if f.name == "jitter_std":
        command, record = ["simulate", "--n", "2"], "summary.json"
    assert run_cli(tmp_path / "flag", [*command, flag, good_flag]) == 0
    assert run_cli(tmp_path / "key", command, {f.name: good_key}) == 0
    for form in ("flag", "key"):
        echo = json.loads((tmp_path / form / "o" / record).read_text())["config"]
        assert echo[f.name] == good_key
    assert run_cli(tmp_path / "bad_flag", [*command, flag, bad_flag]) == 3
    assert run_cli(tmp_path / "bad_key", command, {f.name: bad_key}) == 3


def test_flag_names_unchanged(capsys):
    common = {
        "--config", "--seed", "--tau-m", "--varsigma-m", "--t-m", "--sigma-m", "--omega",
        "--mass", "--hbar", "--n", "--jitter-std", "--x0", "--sigma-x0", "--engine",
        "--collapse", "--out", "--help",
    }
    extra = {
        "analyze": set(),
        "simulate": set(),
        "sweep": {"--sweep-varsigma", "--sweep-tau", "--log-varsigma", "--log-tau"},
        "validate": {"--grid-n"},
    }
    for command, own in extra.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        assert listed == common | own


def fresh_run(*argv):
    """The exit code (None without argv) and the loaded modules of a fresh
    interpreter that imports the CLI and, when argv is given, runs it: every
    scipy module, numpy, and the modules of the package."""
    script = (
        "import json, sys\n"
        "from qho_measure import cli\n"
        f"argv = {list(argv)!r}\n"
        "code = cli.main(argv) if argv else None\n"
        "names = [m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy' or m.startswith('qho_measure.')]\n"
        "print(json.dumps([code, sorted(names)]))\n"
    )
    src = str(Path(qho_measure.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, set(modules)


def loaded_scipy_modules(*argv):
    """The scipy modules a fresh interpreter has loaded after importing the
    CLI and, when argv is given, running it."""
    code, modules = fresh_run(*argv)
    assert code in (None, 0)
    return sorted(m for m in modules if m.split(".")[0] == "scipy")


# what `import qho_measure.cli` loads: no numpy, no simulation module
CLI_IMPORT = {"qho_measure.cli", "qho_measure.chain_analytics", "qho_measure.gaussian_core", "qho_measure.errors"}
SIMULATE = {"numpy", "qho_measure.trajectory_sim", "qho_measure.csv_rows"}


@pytest.mark.parametrize("argv,code,loads", [
    ((), None, set()),
    (("analyze",), 0, {"numpy"}),
    (("sweep", "--sweep-tau", "0.05", "1.05", "81", "--sweep-varsigma", "0.3", "1.2", "91"), 0, set()),
    (("sweep", "--sweep-tau", "0.1", "0.4", "3", "--sweep-varsigma", "0.1", "10", "3", "--log-varsigma"), 0,
     {"numpy"}),
    (("analyze", "--tau-m", "-0.2"), 3, set()),
    (("sweep", "--sweep-tau", "0.1", "0.4", "3", "--collapse", "weak"), 3, set()),
    (("simulate", "--n", "1000"), 0, SIMULATE | {"qho_measure.cephes"}),  # the chain's normals: cephes's ndtri
    (("simulate", "--engine", "grid", "--n", "2"), 0, SIMULATE | {"qho_measure.grid_oracle"}),
    (("validate", "--n", "2000"), 2, {"numpy", "qho_measure.trajectory_sim", "qho_measure.cephes",
                                      "qho_measure.grid_oracle", "qho_measure.validation"}),
], ids=["import", "analyze", "sweep", "log_sweep", "refused_analyze", "refused_sweep", "chain_simulate",
        "grid_simulate", "validate"])
def test_each_command_loads_only_its_modules(tmp_path, argv, code, loads):
    if argv:
        argv = (*argv, "--out", str(tmp_path / "o"))
    assert fresh_run(*argv) == (code, CLI_IMPORT | loads)


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("analyze",),
        ("simulate", "--engine", "grid", "--n", "2"),
        ("simulate", "--n", "1000"),
        ("validate", "--n", "100000"),
    ],
    ids=["import", "analyze", "grid_simulate", "chain_simulate", "validate"],
)
def test_no_scipy_loaded(tmp_path, argv):
    if argv:
        argv = (*argv, "--out", str(tmp_path / "o"))
    assert loaded_scipy_modules(*argv) == []


@pytest.mark.parametrize("task,jitter", [("simulate_s", ()), ("simulate_jitter_s", ("--jitter-std", "0.01"))],
                         ids=["plain", "jitter"])
def test_fresh_simulate_keeps_the_bytes_without_scipy(tmp_path, task, jitter):
    # in-process runs find scipy.special loaded by the tests and take it; a
    # fresh process takes the numpy ports, which must give the same bytes
    out = tmp_path / "o"
    assert loaded_scipy_modules("simulate", "--n", "500000", *jitter, "--seed", "0", "--out", str(out)) == []
    assert csv_digest(out) == json.loads(REFERENCE_SHA256.read_text())[task]["0"]
