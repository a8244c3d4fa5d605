"""Spans and counters recorded around the package's public functions.

The wrappers are installed from outside the package. Each binding that a
caller looks a function up through (a module global or a class attribute)
is replaced by a wrapper recording a span named after the layer that owns
the function, so `cli.run_chain` and `trajectory_sim.run_chain` are wrapped
separately but both count as `trajectory_sim.run_chain`. Self time is a
span's duration minus the duration of the spans it called.

    python3 perfbench/tracing.py SPANS.json -- simulate --n 1000

runs one qho-measure CLI command traced and writes its span totals to
SPANS.json; the exit code is the command's.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# check function in qho_measure.validation -> check name in validate.json
VALIDATION_CHECKS = {
    "check_grid_vs_closed_form": "grid_vs_closed_form",
    "check_spectral_convergence": "spectral_convergence",
    "check_chain_vs_limit": "chain_vs_sigma_inf",
    "check_two_step_quadrature": "two_step_quadrature",
    "check_partial_sum_identity": "partial_sum_identity",
    "check_povm_roundtrip": "povm_roundtrip",
    "check_weak_vs_replace": "weak_vs_replace_gap",
}

PER_LAYER = (
    ("cli.import.scipy_signal_s", "s"),
    ("cli.import.scipy_special_s", "s"),
    ("cli.import.numpy_s", "s"),
    ("cli.import.qho_measure_self_s", "s"),
    ("cli.resolve_config_s", "s"),
    ("cli.cmd_simulate.self_s", "s"),
    ("cli.cmd_sweep.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("chain_analytics.nondim_limit.calls", "count"),
    ("chain_analytics.nondim_limit.us_per_call", "us"),
    ("chain_analytics.from_setup.calls", "count"),
    ("gaussian_core.evolved_width.s", "s"),
    ("trajectory_sim.run_chain.ns_per_sample", "ns"),
    ("trajectory_sim.run_chain_jittered.ns_per_sample", "ns"),
    ("trajectory_sim.run_ensemble.ns_per_sample", "ns"),
    ("trajectory_sim.push_array.ns_per_sample", "ns"),
    ("trajectory_sim.normality_statistic.ms", "ms"),
    ("grid_oracle.ms_per_measurement", "ms"),
    ("grid_oracle.evolve.calls", "count"),
    ("grid_oracle.evolve.ms_per_call", "ms"),
    ("grid_oracle.fft_calls", "count"),
    ("grid_oracle.fft_calls_per_measurement", "count"),
    ("grid_oracle.fft_flops_computed", "flop"),
    ("grid_oracle.measure_and_collapse.self_us", "us"),
    ("grid_oracle.apply_collapse.replace_us", "us"),
    ("grid_oracle.apply_collapse.weak_us", "us"),
    ("grid_oracle.boundary_probability.us_per_call", "us"),
    ("grid_oracle.init_packet.us_per_call", "us"),
    *((f"validation.{c}.s", "s") for c in VALIDATION_CHECKS.values()),
    *((f"validation.{c}.margin", "ratio") for c in VALIDATION_CHECKS.values()),
    ("bench.trace_overhead_s", "s"),
)


SPAN_KEYS = ("calls", "s", "self_s", "units")


def add_span(spans: dict, label: str, totals: dict) -> None:
    acc = spans.setdefault(label, dict.fromkeys(SPAN_KEYS, 0))
    for key in SPAN_KEYS:
        acc[key] += totals[key]


class Tracer:
    """Span totals per name (calls, seconds, self seconds, units) and counters."""

    def __init__(self):
        self.spans: dict = {}
        self.stack: list[list] = []  # open spans: [name, child_ns]
        self.counts: dict = defaultdict(float)
        self.replaced: list[tuple] = []  # (owner, attribute, original)

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def replace(self, owner, attr: str, new) -> None:
        self.replaced.append((owner, attr, vars(owner)[attr]))  # a class's raw classmethod, too
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put back every binding that install() replaced."""
        while self.replaced:
            owner, attr, original = self.replaced.pop()
            setattr(owner, attr, original)

    def wrap(self, fn, name, units=None):
        """name is a span name or a function of (args, kwargs) returning one;
        units(args, kwargs) gives the work done, e.g. samples drawn."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            frame = [label, 0]
            self.stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += dur
                add_span(self.spans, label, {
                    "calls": 1, "s": dur / 1e9, "self_s": (dur - frame[1]) / 1e9,
                    "units": units(args, kwargs) if units else 0,
                })

        return traced

    def count_fft(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            n = a.shape[-1] if hasattr(a, "shape") else len(a)
            self.counts["fft_calls"] += 1
            self.counts["fft_flops"] += 5.0 * n * math.log2(n) if n > 1 else 0.0
            if self.inside("grid_oracle.run_chain_grid"):
                self.counts["fft_calls_in_chain"] += 1
            return fn(a, *args, **kwargs)

        return counted

    def summary(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _cfg_n(args, kwargs):
    return (args[0] if args else kwargs["cfg"]).n_measurements


def _ensemble_n(args, kwargs):
    n_chains = args[1] if len(args) > 1 else kwargs["n_chains"]
    return _cfg_n(args, kwargs) * n_chains


def _collapse_label(args, kwargs):
    mode = args[3] if len(args) > 3 else kwargs["mode"]
    return f"grid_oracle.apply_collapse.{mode.value}"


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding below; returns the bindings this checkout lacks."""
    import numpy

    from qho_measure import chain_analytics, cli, gaussian_core, grid_oracle, trajectory_sim, validation

    def length(args, kwargs):
        return len(args[1])  # push_array(self, xs)

    modules = {
        "cli": cli, "chain_analytics": chain_analytics, "gaussian_core": gaussian_core,
        "grid_oracle": grid_oracle, "trajectory_sim": trajectory_sim, "validation": validation,
    }
    # (where the name is looked up, attribute, span name, units)
    bindings = [
        ("cli", "resolve_config", "cli.resolve_config", None),
        *(("cli", f"cmd_{c}", f"cli.cmd_{c}", None) for c in ("analyze", "simulate", "sweep", "validate")),
        *((m, "run_chain", "trajectory_sim.run_chain", _cfg_n) for m in ("cli", "validation", "trajectory_sim")),
        *((m, "run_chain_jittered", "trajectory_sim.run_chain_jittered", _cfg_n) for m in ("cli", "trajectory_sim")),
        ("trajectory_sim", "run_ensemble", "trajectory_sim.run_ensemble", _ensemble_n),
        *((m, "normality_statistic", "trajectory_sim.normality_statistic", None) for m in ("cli", "trajectory_sim")),
        *((m, "nondim_limit", "chain_analytics.nondim_limit", None) for m in ("cli", "chain_analytics")),
        *((m, "evolved_width", "gaussian_core.evolved_width", None)
          for m in ("chain_analytics", "trajectory_sim", "gaussian_core")),
        *((m, "run_chain_grid", "grid_oracle.run_chain_grid", _cfg_n) for m in ("cli", "grid_oracle")),
        *((m, "evolve", "grid_oracle.evolve", None) for m in ("grid_oracle", "validation")),
        *((m, "init_packet", "grid_oracle.init_packet", None) for m in ("grid_oracle", "validation")),
        ("grid_oracle", "measure_and_collapse", "grid_oracle.measure_and_collapse", None),
        ("grid_oracle", "apply_collapse", _collapse_label, None),
        ("cli", "run_battery", "validation.run_battery", None),
        *(("validation", fn, f"validation.{check}", None) for fn, check in VALIDATION_CHECKS.items()),
    ]
    missing = []
    for module, attr, label, units in bindings:
        owner = modules[module]
        if not hasattr(owner, attr):
            missing.append(f"{module}.{attr}")
            continue
        tracer.replace(owner, attr, tracer.wrap(getattr(owner, attr), label, units))

    methods = [
        (chain_analytics, "ChainClosedForm", "from_setup", "chain_analytics.from_setup", None),
        (trajectory_sim, "RunningStats", "push_array", "trajectory_sim.push_array", length),
        (grid_oracle, "GridWavefunction", "boundary_probability", "grid_oracle.boundary_probability", None),
    ]
    for module, cls_name, attr, label, units in methods:
        cls = getattr(module, cls_name, None)
        raw = cls.__dict__.get(attr) if cls is not None else None
        if raw is None:
            missing.append(f"{module.__name__}.{cls_name}.{attr}")
        elif isinstance(raw, classmethod):
            tracer.replace(cls, attr, classmethod(tracer.wrap(raw.__func__, label, units)))
        else:
            tracer.replace(cls, attr, tracer.wrap(raw, label, units))

    for attr in ("fft", "ifft"):
        tracer.replace(numpy.fft, attr, tracer.count_fft(getattr(numpy.fft, attr)))
    return missing


def merge(summaries) -> dict:
    """Sum span totals and counters of several traced tasks."""
    spans: dict = {}
    counts: dict = defaultdict(float)
    for s in summaries:
        for label, totals in s["spans"].items():
            add_span(spans, label, totals)
        for key, v in s["counts"].items():
            counts[key] += v
    return {"spans": spans, "counts": dict(counts)}


def import_breakdown(text: str) -> dict:
    """Inclusive seconds per module from `python -X importtime` output.

    A package loaded through importlib (scipy's lazy submodules) prints no
    line of its own; its time is then the sum of its top-level submodule
    lines. qho_measure_self is the self time of the package's own modules.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        head, cum, name = line.split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(head.split(":")[1]), int(cum)))
    parents: dict = {}
    stack: list = []
    for i in range(len(rows) - 1, -1, -1):  # a parent line follows its children
        indent = rows[i][0]
        while stack and rows[stack[-1]][0] >= indent:
            stack.pop()
        parents[i] = rows[stack[-1]][1] if stack else ""
        stack.append(i)

    def inclusive(mod: str) -> float:
        def within(name):
            return name == mod or name.startswith(mod + ".")

        return sum(r[3] for i, r in enumerate(rows) if within(r[1]) and not within(parents[i])) / 1e6

    return {
        "cli.import.scipy_signal_s": inclusive("scipy.signal"),
        "cli.import.scipy_special_s": inclusive("scipy.special"),
        "cli.import.numpy_s": inclusive("numpy"),
        "cli.import.qho_measure_self_s": sum(r[2] for r in rows if r[1].split(".")[0] == "qho_measure") / 1e6,
    }


def layer_metrics(trace: dict, imports: dict, margins: dict, bytes_written: int, overhead_s: float) -> dict:
    """Every PER_LAYER metric; a layer the workload never called reads 0."""
    spans, counts = trace["spans"], trace["counts"]

    def get(label, key="s"):
        return spans.get(label, {}).get(key, 0)

    def per(label, key, scale, denom_key="calls"):
        d = get(label, denom_key)
        return get(label, key) * scale / d if d else 0.0

    measurements = get("grid_oracle.run_chain_grid", "units")
    m = dict(imports)
    m.update({
        "cli.resolve_config_s": get("cli.resolve_config"),
        "cli.cmd_simulate.self_s": get("cli.cmd_simulate", "self_s"),
        "cli.cmd_sweep.self_s": get("cli.cmd_sweep", "self_s"),
        "cli.bytes_written": bytes_written,
        "chain_analytics.nondim_limit.calls": get("chain_analytics.nondim_limit", "calls"),
        "chain_analytics.nondim_limit.us_per_call": per("chain_analytics.nondim_limit", "s", 1e6),
        "chain_analytics.from_setup.calls": get("chain_analytics.from_setup", "calls"),
        "gaussian_core.evolved_width.s": get("gaussian_core.evolved_width"),
        "trajectory_sim.run_chain.ns_per_sample": per("trajectory_sim.run_chain", "s", 1e9, "units"),
        "trajectory_sim.run_chain_jittered.ns_per_sample":
            per("trajectory_sim.run_chain_jittered", "s", 1e9, "units"),
        "trajectory_sim.run_ensemble.ns_per_sample": per("trajectory_sim.run_ensemble", "s", 1e9, "units"),
        "trajectory_sim.push_array.ns_per_sample": per("trajectory_sim.push_array", "s", 1e9, "units"),
        "trajectory_sim.normality_statistic.ms": per("trajectory_sim.normality_statistic", "s", 1e3),
        "grid_oracle.ms_per_measurement":
            get("grid_oracle.run_chain_grid") * 1e3 / measurements if measurements else 0.0,
        "grid_oracle.evolve.calls": get("grid_oracle.evolve", "calls"),
        "grid_oracle.evolve.ms_per_call": per("grid_oracle.evolve", "s", 1e3),
        "grid_oracle.fft_calls": counts.get("fft_calls", 0),
        "grid_oracle.fft_calls_per_measurement":
            counts.get("fft_calls_in_chain", 0) / measurements if measurements else 0.0,
        "grid_oracle.fft_flops_computed": counts.get("fft_flops", 0),
        "grid_oracle.measure_and_collapse.self_us": per("grid_oracle.measure_and_collapse", "self_s", 1e6),
        "grid_oracle.apply_collapse.replace_us": per("grid_oracle.apply_collapse.replace", "s", 1e6),
        "grid_oracle.apply_collapse.weak_us": per("grid_oracle.apply_collapse.weak", "s", 1e6),
        "grid_oracle.boundary_probability.us_per_call": per("grid_oracle.boundary_probability", "s", 1e6),
        "grid_oracle.init_packet.us_per_call": per("grid_oracle.init_packet", "s", 1e6),
        "bench.trace_overhead_s": overhead_s,
    })
    for check in VALIDATION_CHECKS.values():
        m[f"validation.{check}.s"] = get(f"validation.{check}")
        m[f"validation.{check}.margin"] = margins.get(check, 0.0)
    return m


def main(argv: list[str]) -> int:
    out, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- CLI ARGS...")
    tracer = Tracer()
    missing = install(tracer)
    from qho_measure import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(out, "w") as f:
            json.dump({**tracer.summary(), "missing": missing}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
