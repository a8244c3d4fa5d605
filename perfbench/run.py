"""qho-measure benchmark: closed loop, one client, one task at a time.

    python3 perfbench/run.py --workload cli_chain --seed 1 --seconds 24 --trace 0

cli_chain, grid_chain and validate_battery time `python -m qho_measure.cli`
in fresh processes, because every user invocation pays the import.
chain_ensemble calls the sampler in-process. Tasks repeat until --seconds
is spent; each timing is the median over its repetitions. Every output is
checked (see tasks.py); a task that exits non-zero or fails a check counts
as failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
each task untraced, traced, traced and untraced (see tracing.py) and prints
the per-layer metrics. The last stdout line is the JSON result; the full run
record, with every task's argv and timings, goes to .bench_results/.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tasks as T  # noqa: E402
import tracing  # noqa: E402

THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 5
# --trace 1 runs each task in this order, True meaning traced
TRACE_ORDER = (False, True, True, False)
CHILD_TIMEOUT_S = 120.0
END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
)
WORKLOADS = (*T.CLI_WORKLOADS, "chain_ensemble")


class Bench:
    """One benchmark run: counts attempted/failed tasks and keeps their records."""

    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed, self.seconds, self.work = seed, seconds, work
        self.attempted = 0
        self.failed = 0
        self.max_child_rss_mb = 0.0
        self.records: list[dict] = []
        self.env = dict(os.environ)

    def tally(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def child(self, argv: list[str], stderr: Path | None = None) -> tuple[float, int]:
        """Run argv to completion; returns (wall seconds, exit code)."""
        err_path = stderr or self.work / "stderr.txt"
        with err_path.open("wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        self.max_child_rss_mb = max(self.max_child_rss_mb, usage.ru_maxrss / 1024.0)
        if rc != 0 and stderr is None:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            print(f"task failed (exit {rc}): {' '.join(argv[1:])}: {' | '.join(tail)}", file=sys.stderr)
        return wall, rc

    # ------------------------------------------------------------ set-up

    def setup(self) -> float:
        """Median fresh-interpreter time of `import qho_measure.cli`."""
        argv = [sys.executable, "-c", "import qho_measure.cli"]
        times = []
        for _ in range(SETUP_REPS):
            wall, rc = self.child(argv)
            self.tally(rc == 0)
            times.append(wall)
        self.records.append({"task": "setup_s", "argv": argv[1:], "wall_s": times})
        return statistics.median(times)

    def import_breakdown(self) -> dict:
        err = self.work / "importtime.txt"
        _, rc = self.child([sys.executable, "-X", "importtime", "-c", "import qho_measure.cli"], stderr=err)
        self.tally(rc == 0)
        return tracing.import_breakdown(err.read_text())

    # ------------------------------------------------------- CLI workloads

    def cli_rep(self, task: T.Task, out: Path, argv_head: list[str]) -> dict:
        wall, rc = self.child([*argv_head, *task.cli_args(self.seed, out)])
        rep = {"wall_s": wall, "rc": rc}
        if rc == 0 and task.hashed:
            rep["digest"] = T.output_digest(out, task.hashed)
        return rep

    def judge(self, task: T.Task, reps: list[dict], first_out: Path, reference: str | None) -> dict:
        """Check a task's first output and compare every repetition's digest."""
        check = T.check_outputs(task, first_out) if reps[0]["rc"] == 0 else {"ok": False}
        want = reference or reps[0].get("digest")
        for rep in reps:
            ok = rep["rc"] == 0 and check["ok"] and rep.get("digest") == want
            self.tally(ok)
            rep["ok"] = ok
        check["reference"] = "recorded" if reference else ("run" if task.hashed else None)
        return check

    def reference(self, task: T.Task) -> str | None:
        refs = json.loads((HERE / "reference_sha256.json").read_text()).get(task.name, {})
        return refs.get(str(self.seed), refs.get("*"))

    def task_record(self, task: T.Task, reps: list[dict], check: dict) -> dict:
        rec = {
            "task": task.name,
            "argv": ["-m", "qho_measure.cli", *task.cli_args(self.seed, Path("OUT"))],
            "n": task.n,
            "reps": len(reps),
            "wall_s": [r["wall_s"] for r in reps],
            "median_s": statistics.median(r["wall_s"] for r in reps),
            "failed": sum(not r["ok"] for r in reps),
            "check": check,
            **T.grid_settings(task),
        }
        self.records.append(rec)
        return rec

    def run_cli(self, tasks: tuple) -> dict:
        """Repeat the tasks round-robin; a task starts only if its last
        duration still fits in --seconds, and every task runs at least once."""
        head = [sys.executable, "-m", "qho_measure.cli"]
        reps = {t.name: [] for t in tasks}
        t_start = time.perf_counter()
        while True:
            started = False
            for task in tasks:
                done = reps[task.name]
                elapsed = time.perf_counter() - t_start
                if done and elapsed + done[-1]["wall_s"] > self.seconds:
                    continue
                out = self.work / f"{task.name}-{len(done)}"
                done.append(self.cli_rep(task, out, head))
                if len(done) > 1:
                    shutil.rmtree(out, ignore_errors=True)
                started = True
            if not started:
                break
        medians = {}
        for task in tasks:
            check = self.judge(task, reps[task.name], self.work / f"{task.name}-0", self.reference(task))
            medians[task.name] = self.task_record(task, reps[task.name], check)["median_s"]
        return medians

    def trace_cli(self, tasks: tuple) -> dict:
        """Each task runs untraced, traced, traced, untraced, so that drift
        and run order cancel in the overhead; spans come from the first
        traced run."""
        imports = self.import_breakdown()
        plain_head = [sys.executable, "-m", "qho_measure.cli"]
        overhead = 0.0
        summaries, margins, written = [], {}, 0
        for task in tasks:
            out = self.work / f"{task.name}-0"
            spans = self.work / f"{task.name}.spans.json"
            reps = []
            for i, traced in enumerate(TRACE_ORDER):
                head = [sys.executable, str(HERE / "tracing.py"), str(spans), "--"] if traced else plain_head
                rep_out = out if i == 0 else self.work / f"{task.name}-{i}"
                reps.append({**self.cli_rep(task, rep_out, head), "traced": traced})
                if i:
                    shutil.rmtree(rep_out, ignore_errors=True)
                if i == TRACE_ORDER.index(True) and spans.is_file():
                    summaries.append(json.loads(spans.read_text()))
            check = self.judge(task, reps, out, self.reference(task))
            self.task_record(task, reps, check)
            overhead += trace_overhead([r["wall_s"] for r in reps])
            margins.update(check.get("margins", {}))
            written += sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        trace = tracing.merge(summaries)
        self.records.append({"trace": trace, "missing": sorted({m for s in summaries for m in s["missing"]})})
        return tracing.layer_metrics(trace, imports, margins, written, overhead)

    # ------------------------------------------------------ chain_ensemble

    def ensemble_round(self, ts) -> tuple[float, list[tuple]]:
        """One pass of the in-process calls at each tau; returns its wall time
        and, per call, (name, tau, n, record or pooled stats)."""
        from qho_measure.chain_analytics import MeasurementScheme
        from qho_measure.gaussian_core import OscillatorParams, WavePacket

        params = OscillatorParams(T.MASS, T.OMEGA, T.HBAR)
        initial = WavePacket(0.0, params.sigma_gs)
        results = []
        t0 = time.perf_counter()
        for tau in T.ENSEMBLE_TAUS:
            scheme = MeasurementScheme(t_M=tau * params.period, sigma_M=T.SIGMA_M)
            cfg = ts.ChainConfig(params, scheme, initial, T.ENSEMBLE_N, self.seed)
            pooled = ts.run_ensemble(cfg, T.ENSEMBLE_CHAINS)
            jittered = MeasurementScheme(t_M=scheme.t_M, sigma_M=T.SIGMA_M, jitter_std=T.JITTER_STD)
            record, _ = ts.run_chain_jittered(ts.ChainConfig(params, jittered, initial, T.JITTERED_N, self.seed))
            k = ts.thinning_interval(scheme.rho(params))
            ts.normality_statistic(record.samples[::k], T.sigma_inf(tau))
            results.append(("run_ensemble", tau, T.ENSEMBLE_CHAINS * T.ENSEMBLE_N, pooled))
            results.append(("run_chain_jittered", tau, T.JITTERED_N, record.samples))
        return time.perf_counter() - t0, results

    @staticmethod
    def ensemble_checks(results) -> list[dict]:
        out = []
        for name, tau, n, res in results:
            r, target = T.rho(tau), T.sigma_inf(tau)
            if name == "run_ensemble":
                z = T.ar1_z(res.std, n, r, target)
                check = {"ok": res.count == n and abs(z) <= T.Z_MAX, "z": round(z, 4)}
                digest = repr((res.count, res.mean, res.std, res.counts.tolist())).encode()
            else:
                check = T.record_checks(res, n, r, target)
                digest = res.tobytes()
            check.update(call=name, tau=tau, n=n, digest=hashlib.sha256(digest).hexdigest())
            out.append(check)
        return out

    def judge_round(self, checks: list[dict], first: list[dict] | None) -> None:
        for i, check in enumerate(checks):
            same = first is None or check["digest"] == first[i]["digest"]
            self.tally(check["ok"] and same)

    def run_ensemble(self) -> tuple[float, float]:
        import qho_measure.trajectory_sim as ts

        rounds, first = [], None
        t_start = time.perf_counter()
        while not rounds or time.perf_counter() - t_start + rounds[-1] <= self.seconds:
            wall, results = self.ensemble_round(ts)
            rounds.append(wall)
            checks = self.ensemble_checks(results)
            del results  # so that one round's records are alive at a time
            self.judge_round(checks, first)
            first = first or checks
        samples = sum(c["n"] for c in first)
        per_s = samples / statistics.median(rounds)
        self.records.append({
            "task": "chain_ensemble_round", "chains": T.ENSEMBLE_CHAINS, "reps": len(rounds),
            "wall_s": rounds, "chain_samples_per_s": per_s, "check": first,
        })
        return statistics.median(rounds), per_s

    def trace_ensemble(self) -> dict:
        """A warm-up round, then rounds in TRACE_ORDER with the tracer
        installed only for the traced ones; spans come from the first."""
        imports = self.import_breakdown()
        import qho_measure.trajectory_sim as ts

        _, results = self.ensemble_round(ts)
        first = self.ensemble_checks(results)
        self.judge_round(first, None)
        walls, trace, missing = [], None, []
        for traced in TRACE_ORDER:
            tracer = tracing.Tracer()
            if traced:
                missing = tracing.install(tracer)
            try:
                wall, results = self.ensemble_round(ts)
            finally:
                tracer.uninstall()
            walls.append(wall)
            if traced and trace is None:
                trace = tracer.summary()
            self.judge_round(self.ensemble_checks(results), first)
        self.records.append({"task": "chain_ensemble_round", "traced": TRACE_ORDER, "wall_s": walls,
                             "check": first, "trace": trace, "missing": missing})
        return tracing.layer_metrics(trace, imports, {}, 0, trace_overhead(walls))


def trace_overhead(walls: list[float]) -> float:
    """Mean traced minus mean untraced wall time of runs in TRACE_ORDER."""
    traced = [w for w, t in zip(walls, TRACE_ORDER) if t]
    plain = [w for w, t in zip(walls, TRACE_ORDER) if not t]
    return statistics.mean(traced) - statistics.mean(plain)


# ------------------------------------------------------------- run record

def provenance(args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "threads": THREAD_VARS, "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "qho_measure" / "cli.py").is_file():
        print(f"perfbench: no qho_measure package under {SRC}", file=sys.stderr)
        return 2

    # set before numpy is imported here or in any child
    os.environ.update(THREAD_VARS)
    os.environ.pop("QHO_SEED", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))

    record = provenance(args)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.seed, args.seconds, work)
    try:
        if args.trace:
            values = bench.trace_ensemble() if args.workload == "chain_ensemble" else \
                bench.trace_cli(T.CLI_WORKLOADS[args.workload])
            units = dict(tracing.PER_LAYER)
        else:
            setup_s = bench.setup()
            if args.workload == "chain_ensemble":
                round_s, per_s = bench.run_ensemble()
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                print(f"chain_samples_per_s {per_s:.6g} 1/s")
            else:
                medians = bench.run_cli(T.CLI_WORKLOADS[args.workload])
                round_s, rss = sum(medians.values()), bench.max_child_rss_mb
                for name, v in medians.items():
                    print(f"{name} {v:.6g} s")
            values = {"setup_s": setup_s, "round_s": round_s, "peak_rss_mb": rss,
                      "ok_frac": 1.0 - bench.failed / bench.attempted}
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {bench.failed}/{bench.attempted}")
    result = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    record.update(result=result, tasks=bench.records)
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
