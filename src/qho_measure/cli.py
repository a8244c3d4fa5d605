"""Command-line front end: analyze | simulate | sweep | validate.

Configuration comes from an optional JSON config file plus flag overrides
(flags win). Non-dimensional inputs (tau_M = t_M/T, varsigma_M =
sigma_M/sigma_gs) are the preferred interface; dimensional t_M/sigma_M are
accepted for reproducing dimensional setups. Every JSON summary echoes the
fully resolved configuration (validate.json its --grid-n as well), so a
run can be repeated exactly from its own output.

resolve_config builds each run's setup once, as RunConfig.chain; every
command reads it, and its closed form chain.closed_form, from there. Each
command only computes: it returns its files as chunks of bytes (CSV rows
stay lazy), its lines to print and its exit code. main alone writes, through
_write, which removes the files already written when a write fails, and
prints once every file is written: a stdout closed by its reader loses the
lines, not the run's exit code.

Exit codes, for errors found before the run or during it: 0 success; 2 a
failing validate battery, nothing else; 3 a bad input, which is a ConfigError
(a malformed, non-finite or out-of-range value from a flag, the config file
or QHO_SEED, a usage error, or a weak collapse or jitter the command does not
sample), a MemoryError, or an OSError (an --out that cannot be written); 4
every other package error (QhoError) and ArithmeticError: resonance, or a
setup outside the closed forms' domain, float range or its default grid.
E.g. analyze --jitter-std 0.5 exits 3; analyze --tau-m 0.5 exits 4, and so
does simulate --engine grid --collapse weak --n 300, which leaves its grid.

Importing this module loads no numpy, which takes longer than analyze's and
sweep's closed forms: each command imports only what it computes with.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from array import array
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

from .chain_analytics import (
    ChainConfig,
    MeasurementScheme,
    NondimPoint,
    limiting_sigma,
    limiting_sigma_simplified,
    nondim_limit,
    optimal_precision,
)
from .errors import ConfigError, DomainError, QhoError, ResonanceError
from .gaussian_core import Gaussian, OscillatorParams, WavePacket

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3
EXIT_DOMAIN = 4

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

    @cached_property
    def chain(self) -> ChainConfig:
        """The run's ChainConfig, built from the fields at first access, which resolve_config makes last."""
        return ChainConfig(
            params=OscillatorParams(mass=self.mass, omega=self.omega, hbar=self.hbar),
            scheme=MeasurementScheme(t_M=self.t_m, sigma_M=self.sigma_m, jitter_std=self.jitter_std),
            initial=WavePacket(x0=self.x0, sigma_x0=self.sigma_x0),
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
    building the run's chain configuration, cfg.chain, the one its command uses.
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
        params = OscillatorParams(mass=cfg.mass, omega=cfg.omega, hbar=cfg.hbar)
        cfg.t_m, cfg.tau_m = _pick_pair(values, "t_m", "tau_m", params.period)
        cfg.sigma_m, cfg.varsigma_m = _pick_pair(values, "sigma_m", "varsigma_m", params.sigma_gs)
        if cfg.sigma_x0 is None:
            cfg.sigma_x0 = params.sigma_gs
        cfg.chain
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _json(payload: dict) -> list[bytes]:
    return [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()]


def _csv(kind: str, header: str, chunks):
    """A CSV file as chunks of bytes: its version line, its header, then chunks."""
    yield f"# qho-measure {kind} {CSV_VERSION}\n{header}\n".encode()
    yield from chunks


def _refuse_unmodelled(cfg: RunConfig, command: str) -> None:
    """ConfigError for a weak collapse or jitter that command does not sample: only
    simulate --engine grid samples weak chains, only simulate --engine chain jittered ones."""
    engine = cfg.engine if command == "simulate" else None
    command += f" --engine {engine}" if engine else ""
    if cfg.collapse == "weak" and engine != "grid":
        raise ConfigError(f"--collapse weak: {command} models replace chains only")
    if cfg.jitter_std != 0.0 and engine != "chain":
        raise ConfigError(f"--jitter-std: {command} models unjittered chains only")


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(float(v))


# ---------------------------------------------------------------- analyze

def cmd_analyze(cfg: RunConfig, args: argparse.Namespace):
    _refuse_unmodelled(cfg, "analyze")
    params, scheme, cf = cfg.chain.params, cfg.chain.scheme, cfg.chain.closed_form
    sigma_inf = limiting_sigma(cf)  # raises ResonanceError at resonance
    sigma_inf_simplified = limiting_sigma_simplified(params, scheme)
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
    files = {"analyze.json": _json({"config": asdict(cfg), "results": results})}
    return files, [f"{key} = {val}" for key, val in results.items()], EXIT_OK


# --------------------------------------------------------------- simulate

def _running_std(samples) -> list[tuple[int, float | None]]:
    """(k, np.std of the first k samples) at about 200 k up to len(samples),
    None for k = 1. Each std is taken in pieces (prefix_std), so no scratch
    is as large as the record."""
    import numpy as np
    from .trajectory_sim import prefix_std
    n = len(samples)
    ks = range(1, n + 1)
    if n > 200:
        ks = sorted(set(np.unique(np.geomspace(1, n, 200).round().astype(int)).tolist()) | {n})
    return [(k, prefix_std(samples[:k]) if k > 1 else None) for k in ks]


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace):
    _refuse_unmodelled(cfg, "simulate")
    import numpy as np
    from .csv_rows import sample_rows
    from .trajectory_sim import RunningStats, normality_statistic, run_chain, thinning_interval
    cf = cfg.chain.closed_form
    sigma_inf = cf.sigma_inf
    if cfg.engine == "grid":
        from .grid_oracle import CollapseMode, run_chain_grid
        record = run_chain_grid(cfg.chain, mode=CollapseMode(cfg.collapse))
        stats = RunningStats.for_scale(sigma_inf if sigma_inf else 10 * cfg.chain.params.sigma_gs)
        stats.push_array(record.samples)
    else:
        record, stats = run_chain(cfg.chain)
    samples, periods = record.samples, record.periods
    if not (np.isfinite(samples).all() and (periods is None or np.isfinite(periods).all())):
        raise DomainError("the chain overflowed to non-finite outcomes; no files written")

    # every statistic is computed before a file is created
    running = _running_std(samples)
    for k, std in running:  # finite outcomes whose squares overflow
        if std is not None and not math.isfinite(std):
            raise DomainError(f"the std of the first {k} outcomes overflows; no files written")
    sample_std = running[-1][1]
    relative_error = se = z = ks = thin_k = None
    if sample_std is not None and sigma_inf is not None:
        relative_error = abs(sample_std / sigma_inf - 1.0)
        if len(samples) >= 100:
            thin_k = thinning_interval(cf.rho)
            if len(samples[::thin_k]) >= 100:
                ks = normality_statistic(samples[::thin_k], sigma_inf)
        # AR(1) standard error of the sample std, for chains that are
        # stationary at sigma_inf: not jittered ones, nor weak (grid) chains
        if cfg.jitter_std == 0.0 and cfg.collapse != "weak":
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
        "relative_error": relative_error,
        "ks_statistic": ks,
        "thinning_interval": thin_k,
        "histogram_underflow": int(stats.counts[0]),
        "histogram_overflow": int(stats.counts[-1]),
    }
    edges, counts = stats.edges, stats.counts[1:-1]
    density = counts / (stats.count * np.diff(edges))
    analytic = Gaussian(0.0, sigma_inf).pdf(0.5 * (edges[:-1] + edges[1:])) if sigma_inf else [None] * len(counts)
    step = CSV_ROWS_PER_WRITE
    files = {
        "samples.csv": _csv("samples", "index,x_M,t_eff", (
            sample_rows(lo + 1, samples[lo:lo + step], cfg.t_m if periods is None else periods[lo:lo + step])
            for lo in range(0, len(samples), step)
        )),
        "running_std.csv": _csv("running_std", "n,std", (f"{k},{_fmt(std)}\n".encode() for k, std in running)),
        "histogram.csv": _csv("histogram", "bin_lo,bin_hi,count,density,analytic", (
            f"{float(lo)!r},{float(hi)!r},{c},{float(d)!r},{_fmt(a)}\n".encode()
            for lo, hi, c, d, a in zip(edges, edges[1:], counts, density, analytic)
        )),
        "summary.json": _json(summary),
    }
    lines = [f"wrote {len(files)} files to {Path(cfg.out)}"]
    if relative_error is not None:  # a sample std and a sigma_inf
        lines.append(f"sample std = {sample_std:.6g}, sigma_inf = {sigma_inf:.6g}")
    return files, lines, EXIT_OK


# ------------------------------------------------------------------ sweep

def _axis(flag: str, triple, log: bool, default: float) -> array:
    """The axis's points, 8 bytes each, or [default] without the flag. A
    linear axis has np.linspace's bits without numpy: i * step + lo,
    (i / div) * delta + lo where step underflows to 0, and hi last."""
    if triple is None:
        return array("d", [default])
    lo, hi = (_parse(_finite, flag, v) for v in triple[:2])
    count = _parse(_integer, flag, triple[2])
    if count < 2:
        raise ConfigError("sweep axis count must be >= 2")
    if log:
        if min(lo, hi) <= 0:
            raise ConfigError("log-spaced sweep axis needs positive bounds")
        import numpy as np
        with np.errstate(all="ignore"):
            return array("d", np.geomspace(lo, hi, count).tobytes())
    div, delta = count - 1, hi - lo
    step = delta / div  # inf where delta overflows: point 0 is 0 * inf + lo, NaN
    points = array("d", [0.0]) * count  # allocated at once, as np.linspace's
    for i in range(div):
        points[i] = (i * step if step else i / div * delta) + lo
    points[div] = hi
    return points


def _sweep_row(vs: float, tau: float) -> bytes:
    try:
        value, flag = nondim_limit(NondimPoint(vs, tau)), "ok"
    except ResonanceError:
        value, flag = None, "resonant"
    except (DomainError, ValueError):
        value, flag = None, "domain"
    return f"{vs!r},{tau!r},{_fmt(value)},{flag}\n".encode()


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace):
    _refuse_unmodelled(cfg, "sweep")
    if args.sweep_varsigma is None and args.sweep_tau is None:
        raise ConfigError("sweep needs --sweep-varsigma and/or --sweep-tau")
    vs_axis = _axis("--sweep-varsigma", args.sweep_varsigma, args.log_varsigma, cfg.varsigma_m)
    tau_axis = _axis("--sweep-tau", args.sweep_tau, args.log_tau, cfg.tau_m)
    # row by row: memory does not grow with the axes
    rows = (_sweep_row(vs, tau) for tau in tau_axis for vs in vs_axis)
    files = {"sweep.csv": _csv("sweep", "varsigma_M,tau_M,varsigma_inf,flag", rows)}
    return files, [f"wrote {Path(cfg.out) / 'sweep.csv'}"], EXIT_OK


# --------------------------------------------------------------- validate

def cmd_validate(cfg: RunConfig, args: argparse.Namespace):
    _refuse_unmodelled(cfg, "validate")
    from .grid_oracle import default_grid_for
    from .validation import run_battery
    n_points = _parse(_integer, "--grid-n", args.grid_n)
    try:
        grid = default_grid_for(cfg.chain, n_points=n_points)
    except ValueError as exc:
        raise ConfigError(f"--grid-n: {exc}") from exc
    results = run_battery(cfg.chain, grid)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if r.measured is None:  # the check crashed
            line = r.detail
        else:
            extra = f" ({r.detail})" if r.detail else ""
            line = f"measured {r.measured:.3e} vs tolerance {r.tolerance:.3e}{extra}"
        lines.append(f"{status} {r.name}: {line}")
    checks = [r.as_dict() for r in results]
    files = {"validate.json": _json({"config": asdict(cfg), "grid_n": n_points, "checks": checks})}
    return files, lines, EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


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


def _write(out: Path, files: dict) -> None:
    """Create out and write each file's chunks into it; if a write fails, the
    files already written are removed, so no partial set of outputs is left."""
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, chunks in files.items():
            with (out / name).open("wb") as f:
                written.append(out / name)
                f.writelines(chunks)
    except Exception:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        raise


def main(argv=None) -> int:
    args = None  # for the MemoryError handler: parsing itself may run out of memory
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        # looked up at call time, so a rebound cmd_* module attribute is the one run
        command = {"analyze": cmd_analyze, "simulate": cmd_simulate, "sweep": cmd_sweep, "validate": cmd_validate}
        # overflow shows up as the commands' domain errors, not as warnings;
        # sweep's closed form is pure Python, and it loads no numpy
        errstate = contextlib.nullcontext()
        if args.command != "sweep":
            import numpy as np
            errstate = np.errstate(all="ignore")
        with errstate:
            files, lines, code = command[args.command](cfg, args)
            _write(Path(cfg.out), files)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:  # --n sizes the record of simulate only: validate's chain streams
        hint = "; lower --n" if getattr(args, "command", None) == "simulate" else ""
        print(f"configuration error: not enough memory for this run{hint}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # reading the config file is a ConfigError already
        print(f"configuration error: cannot write the outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QhoError, ArithmeticError) as exc:  # every other package error: the setup, not its input
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    with contextlib.suppress(BrokenPipeError):
        for line in lines:
            print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
