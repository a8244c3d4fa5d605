"""Command-line front end: analyze | simulate | sweep | validate.

Configuration comes from an optional JSON config file plus flag overrides
(flags win). Non-dimensional inputs (tau_M = t_M/T, varsigma_M =
sigma_M/sigma_gs) are the preferred interface; dimensional t_M/sigma_M are
accepted for reproducing dimensional setups. Every JSON summary echoes the
fully resolved configuration (validate.json its --grid-n as well), so a
run can be repeated exactly from its own output.

Exit codes: 0 success, 2 validation failure, 3 configuration error (a
malformed, non-finite or out-of-range value, whether from a flag, the config
file or QHO_SEED; a usage error; an --out that cannot be written; jitter
with the grid engine), 4 resonance, a setup whose numbers leave float range,
or a grid setup whose limiting width leaves the default grid too coarse.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .chain_analytics import (
    EPS_RES,
    ChainClosedForm,
    MeasurementScheme,
    NondimPoint,
    limiting_sigma,
    limiting_sigma_simplified,
    nondim_limit,
    optimal_precision,
)
from .csv_rows import sample_rows
from .errors import ConfigError, DomainError, QhoError, ResonanceError
from .gaussian_core import Gaussian, OscillatorParams, WavePacket
from .grid_oracle import CollapseMode, default_grid_for, run_chain_grid
from .trajectory_sim import (
    ChainConfig,
    RunningStats,
    normality_statistic,
    run_chain,
    thinning_interval,
)
from .validation import run_battery

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3
EXIT_RESONANCE = 4

CSV_VERSION = "v1"
# samples.csv is formatted and written this many rows at a time; the
# formatter's working set grows with it
CSV_ROWS_PER_WRITE = 1 << 14


@dataclass
class RunConfig:
    """Run configuration: the one list of the names a run is configured by.

    Each field is a flag (`--name`, with - for _) and a config-file key, and
    both forms go through the parser for the field's type. resolve_config
    fills every field. A None default depends on other fields: t_m = tau_m T,
    varsigma_m = sigma_m / sigma_gs, sigma_x0 = sigma_gs.
    """

    mass: float = 1.0
    omega: float = 0.707
    hbar: float = 1.0
    t_m: float = None
    tau_m: float = 0.2
    sigma_m: float = 0.5
    varsigma_m: float = None
    jitter_std: float = 0.0
    x0: float = 0.0
    sigma_x0: float = None
    n: int = 500_000
    seed: int = 12345  # QHO_SEED, when set, replaces this default
    engine: str = field(default="chain", metadata={"choices": ("chain", "grid")})
    collapse: str = field(default="replace", metadata={"choices": ("replace", "weak")})
    out: str = "qho_out"

    def oscillator(self) -> OscillatorParams:
        return OscillatorParams(mass=self.mass, omega=self.omega, hbar=self.hbar)

    def scheme(self) -> MeasurementScheme:
        return MeasurementScheme(t_M=self.t_m, sigma_M=self.sigma_m, jitter_std=self.jitter_std)

    def packet(self) -> WavePacket:
        return WavePacket(x0=self.x0, sigma_x0=self.sigma_x0)

    def chain_config(self) -> ChainConfig:
        return ChainConfig(
            params=self.oscillator(),
            scheme=self.scheme(),
            initial=self.packet(),
            n_measurements=self.n,
            seed=self.seed,
        )


_FIELDS = {f.name: f for f in fields(RunConfig)}
# dimensional/non-dimensional twins; a flag for either member overrides both
_PAIRS = (("t_m", "tau_m"), ("sigma_m", "varsigma_m"))


def _finite(value) -> float:
    """A finite float from flag text or a JSON number (not a JSON boolean)."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def _integer(value) -> int:
    """An integer from flag text or a JSON integer (not 2.7, not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


_PARSERS = {"float": _finite, "int": _integer, "str": _text}


def _parse(parser, source: str, value):
    """parser(value), with a malformed value reported as a ConfigError."""
    try:
        return parser(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _parse_field(name: str, source: str, value):
    choices = _FIELDS[name].metadata.get("choices")
    if choices is not None and value not in choices:
        raise ConfigError(f"{source}: expected one of {list(choices)}, got {value!r}")
    return _parse(_PARSERS[_FIELDS[name].type], source, value)


def _load_config_file(path: str) -> dict:
    """The file's values, parsed; a JSON null leaves its field unset."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return {k: _parse_field(k, f"{path}: {k}", v) for k, v in raw.items() if v is not None}


def _pick_pair(values: dict, a: str, b: str, scale: float):
    """Resolve a dimensional input a and its non-dimensional twin b = a / scale.

    Either may be given; both only if they agree (that keeps summaries, which
    echo both, valid as config files). With neither, RunConfig's default of
    whichever member has one is used.
    """
    va, vb = values.get(a), values.get(b)
    if va is None and vb is None:
        va = getattr(RunConfig, a)
        if va is None:
            va = getattr(RunConfig, b) * scale
    if va is None:
        va = vb * scale
    elif vb is None:
        vb = va / scale
    elif abs(va - vb * scale) > 1e-9 * max(abs(va), 1e-30):
        raise ValueError(f"inconsistent {a}={va} and {b}={vb}")
    return va, vb


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge the config file, flags, QHO_SEED and RunConfig's defaults.

    Flags win over the file. Range checks are the domain types' own, made by
    building the chain configuration once.
    """
    values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {
        name: _parse_field(name, "--" + name.replace("_", "-"), v)
        for name in _FIELDS
        if (v := getattr(args, name, None)) is not None
    }
    for pair in _PAIRS:
        if flags.keys() & set(pair):
            for key in pair:
                values.pop(key, None)
    values.update(flags)
    if "seed" not in values and "QHO_SEED" in os.environ:
        values["seed"] = _parse_field("seed", "QHO_SEED", os.environ["QHO_SEED"])

    cfg = RunConfig(**values)
    try:
        params = cfg.oscillator()
        cfg.t_m, cfg.tau_m = _pick_pair(values, "t_m", "tau_m", params.period)
        cfg.sigma_m, cfg.varsigma_m = _pick_pair(values, "sigma_m", "varsigma_m", params.sigma_gs)
        if cfg.sigma_x0 is None:
            cfg.sigma_x0 = params.sigma_gs
        cfg.chain_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(float(v))


# ---------------------------------------------------------------- analyze

def cmd_analyze(cfg: RunConfig) -> int:
    params = cfg.oscillator()
    cf = ChainClosedForm.from_setup(params, cfg.scheme(), cfg.packet())
    sigma_inf = limiting_sigma(cf)  # raises ResonanceError at resonance
    sigma_inf_simplified = limiting_sigma_simplified(params, cfg.scheme())
    varsigma_inf = nondim_limit(NondimPoint(cfg.varsigma_m, cfg.tau_m))
    try:
        opt = optimal_precision(cfg.tau_m)
    except DomainError:
        opt = None
    results = {
        "sigma_inf": sigma_inf,
        "sigma_inf_simplified": sigma_inf_simplified,
        "varsigma_inf": varsigma_inf,
        "sigma_step": cf.sigma_step,
        "sigma_first": cf.sigma_first,
        "sigma_gs": params.sigma_gs,
        "rho": cf.rho,
        "period": params.period,
        "optimal_varsigma_m": opt,
    }
    for key, val in results.items():
        print(f"{key} = {val}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "analyze.json", {"config": asdict(cfg), "results": results})
    return EXIT_OK


# --------------------------------------------------------------- simulate

def _running_std_checkpoints(n: int) -> list[int]:
    if n <= 200:
        return list(range(1, n + 1))
    pts = np.unique(np.geomspace(1, n, 200).round().astype(int))
    return sorted(set(pts.tolist()) | {n})


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.engine == "grid" and cfg.jitter_std != 0.0:
        raise ConfigError("--jitter-std is not supported by --engine grid")
    chain_cfg = cfg.chain_config()
    params = cfg.oscillator()
    cf = ChainClosedForm.from_setup(params, cfg.scheme(), cfg.packet())
    sigma_inf = limiting_sigma(cf) if cf.sin_abs > EPS_RES else None

    if cfg.engine == "grid":
        record = run_chain_grid(
            chain_cfg,
            mode=CollapseMode.WEAK_PRODUCT if cfg.collapse == "weak" else CollapseMode.REPLACE,
        )
        stats = RunningStats.for_scale(sigma_inf if sigma_inf else 10 * params.sigma_gs)
        stats.push_array(record.samples)
    else:
        record, stats = run_chain(chain_cfg)

    samples, periods = record.samples, record.periods
    if not (np.isfinite(samples).all() and (periods is None or np.isfinite(periods).all())):
        raise DomainError("the chain overflowed to non-finite outcomes; no files written")

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        path = out / "samples.csv"
        with path.open("wb") as f:
            written.append(path)
            f.write(f"# qho-measure samples {CSV_VERSION}\nindex,x_M,t_eff\n".encode())
            for lo in range(0, len(samples), CSV_ROWS_PER_WRITE):
                hi = lo + CSV_ROWS_PER_WRITE
                t_eff = cfg.t_m if periods is None else periods[lo:hi]
                f.write(sample_rows(lo + 1, samples[lo:hi], t_eff))

        path = out / "running_std.csv"
        with path.open("w") as f:
            written.append(path)
            f.write(f"# qho-measure running_std {CSV_VERSION}\n")
            f.write("n,std\n")
            for k in _running_std_checkpoints(len(samples)):
                std = float(np.std(samples[:k])) if k > 1 else None
                f.write(f"{k},{_fmt(std)}\n")

        path = out / "histogram.csv"
        with path.open("w") as f:
            written.append(path)
            f.write(f"# qho-measure histogram {CSV_VERSION}\n")
            f.write("bin_lo,bin_hi,count,density,analytic\n")
            edges, counts = stats.edges, stats.counts[1:-1]
            widths = np.diff(edges)
            analytic = Gaussian(0.0, sigma_inf).pdf(0.5 * (edges[:-1] + edges[1:])) if sigma_inf else None
            for j in range(len(counts)):
                density = counts[j] / (stats.count * widths[j])
                a = _fmt(analytic[j]) if analytic is not None else ""
                f.write(f"{float(edges[j])!r},{float(edges[j + 1])!r},{counts[j]},{float(density)!r},{a}\n")

        sample_std = float(np.std(samples)) if len(samples) > 1 else None
        ks = None
        thin_k = None
        if len(samples) >= 100 and sigma_inf is not None:
            thin_k = thinning_interval(cf.rho)
            thinned = samples[::thin_k]
            if len(thinned) >= 100:
                ks = normality_statistic(thinned, sigma_inf)
        # AR(1) standard error of the sample std, for chains that are
        # stationary at sigma_inf: not jittered ones, nor weak grid chains
        weak_grid = cfg.engine == "grid" and cfg.collapse == "weak"
        se = z = None
        if sample_std is not None and sigma_inf is not None and cfg.jitter_std == 0.0 and not weak_grid:
            n_eff = len(samples) * (1.0 - cf.rho**2) / (1.0 + cf.rho**2)
            se = sigma_inf / math.sqrt(2.0 * n_eff)
            z = (sample_std - sigma_inf) / se
        summary = {
            "config": asdict(cfg),
            "n_samples": int(len(samples)),
            "sample_std": sample_std,
            "sample_std_se": se,
            "sample_std_z": z,
            "sigma_inf_predicted": sigma_inf,
            "relative_error": (
                abs(sample_std / sigma_inf - 1.0)
                if sample_std is not None and sigma_inf is not None
                else None
            ),
            "ks_statistic": ks,
            "thinning_interval": thin_k,
            "histogram_underflow": int(stats.counts[0]),
            "histogram_overflow": int(stats.counts[-1]),
        }
        path = out / "summary.json"
        written.append(path)
        _write_json(path, summary)
    except Exception:
        for p in written:
            with contextlib.suppress(OSError):
                p.unlink()
        raise
    print(f"wrote {len(written)} files to {out}")
    if sigma_inf is not None and sample_std is not None:
        print(f"sample std = {sample_std:.6g}, sigma_inf = {sigma_inf:.6g}")
    return EXIT_OK


# ------------------------------------------------------------------ sweep

def _axis(flag: str, triple, log: bool) -> np.ndarray:
    lo, hi = (_parse(_finite, flag, v) for v in triple[:2])
    count = _parse(_integer, flag, triple[2])
    if count < 2:
        raise ConfigError("sweep axis count must be >= 2")
    if log:
        if min(lo, hi) <= 0:
            raise ConfigError("log-spaced sweep axis needs positive bounds")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.sweep_varsigma is None and args.sweep_tau is None:
        raise ConfigError("sweep needs --sweep-varsigma and/or --sweep-tau")
    vs_axis = (
        _axis("--sweep-varsigma", args.sweep_varsigma, args.log_varsigma)
        if args.sweep_varsigma is not None
        else np.array([cfg.varsigma_m])
    )
    tau_axis = (
        _axis("--sweep-tau", args.sweep_tau, args.log_tau)
        if args.sweep_tau is not None
        else np.array([cfg.tau_m])
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    with path.open("w") as f:
        f.write(f"# qho-measure sweep {CSV_VERSION}\n")
        f.write("varsigma_M,tau_M,varsigma_inf,flag\n")
        for tau in tau_axis:
            for vs in vs_axis:
                try:
                    value = nondim_limit(NondimPoint(float(vs), float(tau)))
                    flag = "ok"
                except ResonanceError:
                    value, flag = None, "resonant"
                except (DomainError, ValueError):
                    value, flag = None, "domain"
                f.write(f"{float(vs)!r},{float(tau)!r},{_fmt(value)},{flag}\n")
    print(f"wrote {path}")
    return EXIT_OK


# --------------------------------------------------------------- validate

def cmd_validate(cfg: RunConfig, args: argparse.Namespace) -> int:
    chain_cfg = cfg.chain_config()
    n_points = _parse(_integer, "--grid-n", args.grid_n)
    try:
        grid = default_grid_for(chain_cfg, n_points=n_points)
    except ValueError as exc:
        raise ConfigError(f"--grid-n: {exc}") from exc
    results = run_battery(chain_cfg, grid)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if r.measured is None:  # the check crashed
            line = r.detail
        else:
            extra = f" ({r.detail})" if r.detail else ""
            line = f"measured {r.measured:.3e} vs tolerance {r.tolerance:.3e}{extra}"
        print(f"{status} {r.name}: {line}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "validate.json",
        {"config": asdict(cfg), "grid_n": n_points, "checks": [r.as_dict() for r in results]},
    )
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


# ------------------------------------------------------------------- main

def _add_common_flags(p: argparse.ArgumentParser) -> None:
    # values stay text here and go through RunConfig's parsers, so a
    # malformed flag exits like a malformed config-file value
    p.add_argument("--config", help="JSON config file; flags override it")
    for f in fields(RunConfig):
        default = None if f.default is None else f"default {f.default}"
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, help=default)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported as configuration errors (exit 3);
    its own exit code 2 is the code of a validation failure."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qho-measure",
        description="Periodic finite-precision position measurements of a "
        "quantum harmonic oscillator: closed forms, simulation, validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form summary for one configuration")
    _add_common_flags(p)

    p = sub.add_parser("simulate", help="run a measurement chain, emit plot-ready tables")
    _add_common_flags(p)

    p = sub.add_parser("sweep", help="grid of the non-dimensional limiting width")
    _add_common_flags(p)
    p.add_argument("--sweep-varsigma", nargs=3, metavar=("MIN", "MAX", "COUNT"))
    p.add_argument("--sweep-tau", nargs=3, metavar=("MIN", "MAX", "COUNT"))
    p.add_argument("--log-varsigma", action="store_true")
    p.add_argument("--log-tau", action="store_true")

    p = sub.add_parser("validate", help="cross-validation battery (closed forms vs grid)")
    _add_common_flags(p)
    p.add_argument("--grid-n", default=4096, help="grid points for the oracle")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        # overflow shows up as the commands' domain errors, not as warnings
        with np.errstate(all="ignore"):
            if args.command == "analyze":
                return cmd_analyze(cfg)
            if args.command == "simulate":
                return cmd_simulate(cfg)
            if args.command == "sweep":
                return cmd_sweep(cfg, args)
            return cmd_validate(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("configuration error: not enough memory for this run; lower --n", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # reading the config file is a ConfigError already
        print(f"configuration error: cannot write the outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResonanceError, DomainError, ArithmeticError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RESONANCE
    except QhoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
