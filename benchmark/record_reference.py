#!/usr/bin/env python3
"""Record the reference eval curves the benchmark checks every run against.

Run from the root of the repository, at the commit whose outputs are the
reference::

    python3 benchmark/record_reference.py [workload ...]

For each workload (all by default) it runs the five CLI stages at the
workload's seed and writes ``benchmark/reference/<workload>.json`` with
the per-layer NMSE (dB) of every curve in ``eval.csv``, the training step
count and the commit it came from.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run


def record(workload: run.Workload) -> None:
    ops = run.Ops()
    out_dir = run.WORK_DIR / workload.name / "reference"
    shutil.rmtree(out_dir, ignore_errors=True)
    deadline = time.perf_counter() + 3600.0
    if not run.run_stages(run.STAGES, workload, out_dir, ops, deadline).ok:
        raise SystemExit(f"{workload.name}: {ops.failed}")
    reference = {
        "workload": workload.name,
        "cli_seed": workload.cli_seed,
        "commit": run.commit(),
        "training_steps": len(run.csv_rows(out_dir / "history.csv")),
        "eval_nmse_db": run.eval_curves(out_dir / "eval.csv"),
    }
    workload.reference.parent.mkdir(parents=True, exist_ok=True)
    workload.reference.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"{workload.name}: {reference['training_steps']} steps -> {workload.reference}")


def main(names: list[str]) -> int:
    for name in names or run.WORKLOADS:
        record(run.WORKLOADS[name])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
