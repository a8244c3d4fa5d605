"""Record the output digests that the cli_chain workload compares against.

    python3 perfbench/record_references.py

Runs each hashed cli_chain task in-process for every seed in SEEDS and writes
perfbench/reference_sha256.json. The digests pin the byte-identical CSV
contract: rerun this only on a commit whose CSV output is meant to change.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tasks import CLI_WORKLOADS, output_digest  # noqa: E402

REFERENCE_FILE = HERE / "reference_sha256.json"
SEEDS = range(256)


def main() -> int:
    from qho_measure import cli

    tasks = [t for t in CLI_WORKLOADS["cli_chain"] if t.hashed]
    out = ROOT / ".bench_work" / "references"
    refs: dict = {}
    try:
        for task in tasks:
            # sweep output does not depend on the seed: one digest covers all
            seeds = SEEDS if task.check == "chain" else SEEDS[:1]
            for seed in seeds:
                if cli.main(task.cli_args(seed, out)) != 0:
                    raise SystemExit(f"{task.name} seed {seed} failed")
                key = str(seed) if task.check == "chain" else "*"
                refs.setdefault(task.name, {})[key] = output_digest(out, task.hashed)
                shutil.rmtree(out)
            print(f"recorded {task.name}", flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
