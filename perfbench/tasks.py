"""Workloads of the qho-measure benchmark and the checks on their outputs.

Every task runs the package at the CLI defaults (mass 1, omega 0.707,
hbar 1, tau_M 0.2, sigma_M 0.5, ground-state initial packet), so the
closed forms below describe every output. They are written out here, not
imported from the package, so that the checks stay independent of the code
they check.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

MASS, OMEGA, HBAR = 1.0, 0.707, 1.0
TAU_M = 0.2
SIGMA_M = 0.5
JITTER_STD = 0.01

# |z| of the sample std against sigma_inf above which a record fails. The
# z-scores of correct records have unit spread, so a false alarm is ~6e-7.
Z_MAX = 5.0
# The thinned record is cut into KS_BLOCKS consecutive blocks, each tested
# at the 1% critical value 1.63/sqrt(n). One whole-record test at 1% fails
# about 2% of correct seeds (residual correlation after thinning); the record
# fails only when most blocks reject, which keeps false alarms below 1e-4.
KS_BLOCKS = 5
KS_MIN_BLOCK = 100
THIN_THRESHOLD = 0.05

CSVS = ("samples.csv", "running_std.csv", "histogram.csv")
VALIDATE_CHECKS = (
    "grid_vs_closed_form",
    "spectral_convergence",
    "chain_vs_sigma_inf",
    "two_step_quadrature",
    "partial_sum_identity",
    "povm_roundtrip",
    "weak_vs_replace_gap",
)

# Weak-collapse grid chains heat without bound (acceptance criterion 12:
# the outcome std grows like sqrt(n)) and leave the default grid after
# 10-170 measurements. n = 8 ended inside the grid on all of seeds 0-999.
GRID_WEAK_N = 8

# In-process ensemble: tau_M = 0.2 gives rho ~ 0.31, tau_M = 0.45 gives
# |rho| ~ 0.95; the thinning interval grows from 3 to 60 between them.
ENSEMBLE_TAUS = (0.2, 0.45)
ENSEMBLE_CHAINS = 16
ENSEMBLE_N = 1_000_000
JITTERED_N = 2_000_000


@dataclass(frozen=True)
class Task:
    """One fresh-process CLI invocation and what its outputs must satisfy."""

    name: str          # timing name reported per task, e.g. "simulate_s"
    args: tuple        # CLI arguments, without --seed and --out
    check: str         # "analyze" | "sweep" | "chain" | "weak" | "validate"
    n: int | None = None
    hashed: tuple = ()  # outputs that must repeat byte for byte
    grid: bool = False  # runs the grid oracle

    def cli_args(self, seed: int, out: Path) -> list[str]:
        return [*self.args, "--seed", str(seed), "--out", str(out)]


CLI_WORKLOADS = {
    "cli_chain": (
        Task("analyze_s", ("analyze",), "analyze"),
        Task(
            "sweep_s",
            ("sweep", "--sweep-tau", "0.05", "1.05", "81", "--sweep-varsigma", "0.3", "1.2", "91"),
            "sweep",
            hashed=("sweep.csv",),
        ),
        Task("simulate_s", ("simulate", "--n", "500000"), "chain", 500_000, CSVS),
        Task(
            "simulate_jitter_s",
            ("simulate", "--n", "500000", "--jitter-std", str(JITTER_STD)),
            "chain",
            500_000,
            CSVS,
        ),
    ),
    "grid_chain": (
        Task(
            "grid_replace_s",
            ("simulate", "--engine", "grid", "--collapse", "replace", "--n", "200"),
            "chain",
            200,
            CSVS,
            grid=True,
        ),
        Task(
            "grid_weak_s",
            ("simulate", "--engine", "grid", "--collapse", "weak", "--n", str(GRID_WEAK_N)),
            "weak",
            GRID_WEAK_N,
            CSVS,
            grid=True,
        ),
    ),
    # --grid-n spelled out at its default so the record states the grid size
    "validate_battery": (
        Task("validate_s", ("validate", "--n", "100000", "--grid-n", "4096"), "validate", 100_000, grid=True),
    ),
}


# ------------------------------------------------------------ closed forms

def sigma_gs() -> float:
    return math.sqrt(HBAR / (MASS * OMEGA))


def period() -> float:
    return 2.0 * math.pi / OMEGA


def rho(tau: float) -> float:
    return math.cos(2.0 * math.pi * tau)


def sigma_inf(tau: float, sigma_m: float = SIGMA_M) -> float:
    """sqrt(sigma_M^2 cot^2(2 pi tau) + sigma_gs^4 / (4 sigma_M^2))."""
    ang = 2.0 * math.pi * tau
    cot = math.cos(ang) / math.sin(ang)
    return math.sqrt(sigma_m**2 * cot**2 + sigma_gs() ** 4 / (4.0 * sigma_m**2))


def thinning(r: float) -> int:
    k = 1
    while abs(r) ** k >= THIN_THRESHOLD:
        k += 1
    return k


def grid_settings(task: Task) -> dict:
    """Grid size of a grid task and, for a grid chain, its Strang step."""
    if not task.grid:
        return {}
    from qho_measure import grid_oracle

    args = list(task.args)
    grid_n = int(args[args.index("--grid-n") + 1]) if "--grid-n" in args else grid_oracle.DEFAULT_N_POINTS
    if task.check == "validate":
        return {"grid_n": grid_n}  # the battery chooses its own steps
    # evolve rounds t_M / default dt to whole steps and steps exactly t_M
    steps = max(1, round(TAU_M * grid_oracle.DEFAULT_STEPS_PER_PERIOD))
    return {"grid_n": grid_n, "dt": TAU_M * period() / steps}


# ------------------------------------------------------------------ checks

def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digest(out: Path, names) -> str:
    """One SHA-256 over the SHA-256 of each named output file, in order."""
    lines = "".join(f"{name}:{sha256(out / name)}\n" for name in names)
    return hashlib.sha256(lines.encode()).hexdigest()


def ar1_z(std: float, n: int, r: float, target: float) -> float:
    """z-score of a sample std with effective n = n (1 - rho^2) / (1 + rho^2)."""
    n_eff = n * (1.0 - r * r) / (1.0 + r * r)
    return (std - target) / (target / math.sqrt(2.0 * n_eff))


def ks_blocks(samples, r: float, target: float) -> dict:
    """Block KS test of the thinned record against N(0, target^2)."""
    import numpy as np
    from scipy.special import ndtr

    k = thinning(r)
    thinned = np.asarray(samples)[::k]
    size = len(thinned) // KS_BLOCKS
    if size < KS_MIN_BLOCK:
        return {"ok": True, "skipped": f"{len(thinned)} thinned samples < {KS_BLOCKS} x {KS_MIN_BLOCK}"}
    ratios = []
    for b in range(KS_BLOCKS):
        xs = np.sort(thinned[b * size:(b + 1) * size])
        cdf = ndtr(xs / target)
        i = np.arange(1, size + 1)
        d = max(float(np.max(i / size - cdf)), float(np.max(cdf - (i - 1) / size)))
        ratios.append(d / (1.63 / math.sqrt(size)))
    rejected = sum(q > 1.0 for q in ratios)
    return {"ok": rejected <= KS_BLOCKS // 2, "thin": k, "block_n": size,
            "d_over_crit": [round(q, 4) for q in ratios]}


def record_checks(samples, n: int, r: float, target: float) -> dict:
    """AR(1) z-test of the std and block KS test of one outcome record."""
    import numpy as np

    xs = np.asarray(samples, dtype=float)
    if len(xs) != n or not np.all(np.isfinite(xs)):
        return {"ok": False, "error": f"expected {n} finite samples, got {len(xs)}"}
    z = ar1_z(float(np.std(xs)), n, r, target)
    ks = ks_blocks(xs, r, target)
    return {"ok": abs(z) <= Z_MAX and ks["ok"], "z": round(z, 4), "ks": ks}


def read_samples(out: Path):
    import numpy as np

    return np.loadtxt(out / "samples.csv", delimiter=",", skiprows=2, usecols=1, ndmin=1)


def check_outputs(task: Task, out: Path) -> dict:
    """Content checks on one task's output directory; "ok" says if it passed."""
    try:
        if task.check == "analyze":
            got = json.loads((out / "analyze.json").read_text())["results"]["sigma_inf"]
            want = sigma_inf(TAU_M)
            return {"ok": abs(got / want - 1.0) <= 1e-12, "sigma_inf": got, "closed_form": want}
        if task.check == "sweep":
            return {"ok": (out / "sweep.csv").is_file()}
        if task.check == "chain":
            return record_checks(read_samples(out), task.n, rho(TAU_M), sigma_inf(TAU_M))
        if task.check == "weak":
            import numpy as np

            xs = read_samples(out)
            return {"ok": len(xs) == task.n and bool(np.all(np.isfinite(xs)))}
        if task.check == "validate":
            checks = json.loads((out / "validate.json").read_text())["checks"]
            names = tuple(c["name"] for c in checks)
            return {
                "ok": names == VALIDATE_CHECKS and all(c["passed"] for c in checks),
                "margins": {c["name"]: c["measured"] / c["tolerance"] for c in checks},
            }
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    raise ValueError(f"unknown check {task.check!r}")
