#!/usr/bin/env python3
"""Benchmark of the blockunfold command-line pipeline.

Run from the root of the repository::

    python3 benchmark/run.py --workload circ-desk --seed 1 --seconds 20 --trace 0

``--trace 0`` runs ``gen -> weights -> train -> eval -> verify`` once, each
stage as its own ``python -m blockunfold.cli`` process, then repeats the
workload's short stages a fixed number of times, measures inference of the
trained network in this process, checks every output and reports the
end-to-end metrics, each a median over its samples.  ``--trace 1`` runs the
same stages in this process with every public function of the nine modules
wrapped by ``tracer.patched``, and reports the per-layer metrics and the
tracing overhead.  Every run does the same work
whatever ``--seconds`` says: a pipeline takes longer than the driver's run
length, and a fixed sample mix keeps runs of two commits comparable.

The pipeline always runs at the workload's own seed (passed to the CLI as
``--seed``); ``--seed`` picks the batch of fresh signals the inference
measurement runs on.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run also writes a result
record with the environment, all samples and all checks to
``.bench_build/results/``.  See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build"

STAGES = ("gen", "weights", "train", "eval", "verify")
SETUP_STAGES = ("gen", "weights")
OUTPUT_FILES = ("history.csv", "eval.csv", "verify.csv")

# After the pipeline, eval and verify run again in the pipeline's directory,
# and set-up (gen + weights) runs again in fresh directories, to
# STAGE_SAMPLES walls each.  Single stage walls vary by 10-25% on a shared
# 2-core machine, and the machine's speed drifts over tens of seconds, so
# every stage time is a median of samples spread over the run.  The counts
# are fixed, never derived from measured times, so a faster commit takes
# the same samples as its parent.
STAGE_SAMPLES = 3
# Timed full-depth forward calls behind infer_signals_per_s (after a warm-up).
INFER_REPEATS = 30
# A run must end within 180 s; stages still running at this point are killed.
RUN_DEADLINE_S = 170.0
# Trained and baseline eval curves may differ from the reference by this much.
EVAL_TOL_DB = 0.01
# Largest share of the traced stage time that may lie outside the stage
# commands, in ``cli.main``'s own self time.
COVERAGE_TOL = 0.02
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """A config run at a fixed CLI seed, with its reference eval curves.

    ``weights_fn`` is the traced weight function its config selects.
    """

    name: str
    config: Path
    cli_seed: int
    reference: Path | None
    weights_fn: str = "weights.closed_form_weights"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gauss-desk", ROOT / "scripts/gaussian.cfg", 2, BENCH_DIR / "reference/gauss-desk.json"),
        Workload(
            "circ-desk", ROOT / "scripts/circulant.cfg", 2, BENCH_DIR / "reference/circ-desk.json",
            weights_fn="weights.circulant_weights_fft",
        ),
        Workload("gauss-wide", BENCH_DIR / "configs/gauss_wide.cfg", 3, BENCH_DIR / "reference/gauss-wide.json"),
    )
}


@dataclass
class Ops:
    """Operations attempted and the ones that failed, by description."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(what)
        return ok


@dataclass
class Pipeline:
    """Stage walls of one run of consecutive stages; ok if all exited 0."""

    walls: dict[str, float]
    peak_rss_kb: int
    ok: bool


# ---------------------------------------------------------------------------
# stage processes


def _stage_argv(stage: str, workload: Workload, out_dir: Path) -> list[str]:
    return [
        stage,
        "--config", str(workload.config),
        "--seed", str(workload.cli_seed),
        "--out", str(out_dir),
    ]


def run_stage(stage: str, workload: Workload, out_dir: Path, timeout: float) -> tuple[float, int, int]:
    """Wall seconds, exit code and peak RSS (KiB) of one CLI stage process.

    The process is reaped with ``os.wait4`` for its resource usage; it is
    killed if it outlives ``timeout``.
    """
    if timeout <= 0:
        return 0.0, -1, 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "blockunfold.cli", *_stage_argv(stage, workload, out_dir)]
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{stage}.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def run_stages(stages, workload: Workload, out_dir: Path, ops: Ops, deadline: float) -> Pipeline:
    walls, peak, ok = {}, 0, True
    for stage in stages:
        wall, code, rss = run_stage(stage, workload, out_dir, deadline - time.perf_counter())
        walls[stage] = wall
        peak = max(peak, rss)
        ok &= ops.check(code == 0, f"{out_dir.name}: stage {stage} exited {code}")
    return Pipeline(walls, peak, ok)


def run_in_process(workload: Workload, out_dir: Path, ops: Ops) -> dict[str, float]:
    """Run the five stages through ``cli.main`` in this process; stage walls."""
    from blockunfold import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    walls = {}
    with open(out_dir / "stages.log", "w", encoding="utf-8") as log:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for stage in STAGES:
                start = time.perf_counter()
                try:
                    code = cli.main(_stage_argv(stage, workload, out_dir))
                except Exception:
                    traceback.print_exc()
                    code = 1
                walls[stage] = time.perf_counter() - start
                ops.check(code == 0, f"{out_dir.name}: stage {stage} exited {code}")
    return walls


# ---------------------------------------------------------------------------
# output checks


def csv_rows(path: Path) -> list[list[str]]:
    """Data rows of a blockunfold CSV (schema comment and header dropped)."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def eval_curves(path: Path) -> dict[str, list[float]]:
    curves: dict[str, list[float]] = {}
    for algorithm, _, value in csv_rows(path):
        curves.setdefault(algorithm, []).append(float(value))
    return curves


def output_digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUT_FILES
    }


def same_as_before(state_path: Path, key: str, value) -> bool:
    """True if ``value`` equals the one recorded under ``key`` by an earlier
    run in this checkout; the first run records it.  Callers put the digest
    of ``src/`` in ``key``, so runs of another version are not compared."""
    state = json.loads(state_path.read_text()) if state_path.exists() else {}
    if key not in state:
        state[key] = value
        state_path.parent.mkdir(parents=True, exist_ok=True)
        state_path.write_text(json.dumps(state, indent=1, sort_keys=True))
        return True
    return state[key] == value


def curves_match(curves: dict[str, list[float]], reference: dict[str, list[float]]) -> bool:
    if curves.keys() != reference.keys():
        return False
    return all(
        len(curves[k]) == len(reference[k])
        and all(abs(a - b) <= EVAL_TOL_DB for a, b in zip(curves[k], reference[k]))
        for k in reference
    )


def check_outputs(workload: Workload, out_dir: Path, ops: Ops) -> dict | None:
    """Check one pipeline's outputs; return what the metrics read from them.

    The CSVs must repeat byte for byte across runs of this version of
    ``src/`` at this seed, and the eval curves must match the workload's
    reference.
    """
    try:
        digests = output_digests(out_dir)
        curves = eval_curves(out_dir / "eval.csv")
        layers = [int(row[1]) for row in csv_rows(out_dir / "history.csv")]
    except (OSError, ValueError) as exc:
        ops.check(False, f"{out_dir.name}: unreadable outputs ({exc})")
        return None
    state = WORK_DIR / workload.name / "repeat.json"
    ops.check(
        same_as_before(state, f"outputs.{src_sha256()}.seed{workload.cli_seed}", digests),
        f"{out_dir.name}: history/eval/verify CSVs differ from an earlier run",
    )
    if workload.reference is not None:
        ref = json.loads(workload.reference.read_text()) if workload.reference.exists() else None
        ops.check(
            ref is not None
            and ref["cli_seed"] == workload.cli_seed
            and curves_match(curves, ref["eval_nmse_db"]),
            f"{out_dir.name}: eval curves differ from {workload.reference.name}",
        )
    trained = [k for k in curves if k.endswith("_trained")]
    return {
        "layers": layers,
        "test_nmse_db": curves[trained[0]][-1] if trained else float("nan"),
    }


# ---------------------------------------------------------------------------
# inference


def inference_batch(workload: Workload, seed: int):
    """``n_test`` fresh signals of the workload's problem, drawn from ``seed``.

    Their sample indices lie past the dataset's train/val/test range, so
    the batch is never one the network was trained or evaluated on.
    """
    from blockunfold import cli, datagen

    cfg = cli.read_config(workload.config)
    scenario = replace(cfg.scenario, seed=workload.cli_seed)
    problem = datagen.build_problem(scenario)
    first = cfg.n_train + cfg.n_validation + cfg.n_test + seed * cfg.n_test
    return datagen.gen_signal_batch(scenario, problem.D, cfg.n_test, start_index=first)


def measure_inference(workload: Workload, seed: int, checkpoint: Path, ops: Ops) -> tuple[int, list[float]]:
    """Rows per call and timed seconds of full-depth forward calls."""
    from blockunfold import training, unfolding

    X, Y = inference_batch(workload, seed)
    params = unfolding.load_checkpoint(checkpoint)
    warm = unfolding.forward(params, Y).iterates[-1]
    samples, identical = [], True
    for _ in range(INFER_REPEATS):
        start = time.perf_counter()
        out = unfolding.forward(params, Y).iterates[-1]
        samples.append(time.perf_counter() - start)
        identical &= np.array_equal(out, warm)
    ops.check(identical, "inference: repeated forward calls gave different outputs")
    ops.check(
        bool(np.all(np.isfinite(warm))) and training.mean_nmse_db(warm, X) < 0.0,
        "inference: outputs are not finite or no better than the zero estimate",
    )
    return Y.shape[0], samples


# ---------------------------------------------------------------------------
# statistics and environment


def timing(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    values = sorted(samples)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n > 10:
        out[f"p{100 * (n - 10) // n}"] = values[n - 11]
    return out


def src_sha256() -> str:
    """Digest of the program: every ``.py`` file under ``src/``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> dict:
    """The git commit when there is one, and a digest of ``src/`` always."""
    head = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
            )
            head = proc.stdout.strip() or None
        except OSError:
            pass
    return {"git": head, "src_sha256": src_sha256()}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(),
        "cli_threads": "not passed: the CLI parses --threads but nothing reads it, "
        "so the benchmark neither relies on it nor sets it",
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(workload: Workload, seed: int, ops: Ops, start: float) -> tuple[dict, dict]:
    """One pipeline, then rounds of repeats of the short stages (in the
    pipeline's directory) with inference after the first round."""
    deadline = start + RUN_DEADLINE_S
    run_dir = WORK_DIR / workload.name
    pipeline_dir = run_dir / "pipeline"
    shutil.rmtree(pipeline_dir, ignore_errors=True)
    p = run_stages(STAGES, workload, pipeline_dir, ops, deadline)
    peak_kb = p.peak_rss_kb
    checked = check_outputs(workload, pipeline_dir, ops) if p.ok else None
    if checked is None:
        return {"peak_rss_mb": peak_kb / 1024.0}, {"samples": {}, "timings": {}}
    walls = {stage: [wall] for stage, wall in p.walls.items()}
    setup = [p.walls["gen"] + p.walls["weights"]]
    repeated = [("eval",), ("verify",), SETUP_STAGES]
    rows, infer = 0, []
    for round_ in range(1, STAGE_SAMPLES):
        for stages in repeated:
            out_dir = pipeline_dir
            if stages == SETUP_STAGES:
                out_dir = run_dir / f"setup-{round_}"
                shutil.rmtree(out_dir, ignore_errors=True)
            r = run_stages(stages, workload, out_dir, ops, deadline)
            peak_kb = max(peak_kb, r.peak_rss_kb)
            if r.ok:
                for stage, wall in r.walls.items():
                    walls[stage].append(wall)
                if stages == SETUP_STAGES:
                    setup.append(sum(r.walls.values()))
        if round_ == 1:
            rows, infer = measure_inference(workload, seed, pipeline_dir / "checkpoint.txt", ops)
    # The repeats rewrote eval.csv and verify.csv: check them again.
    check_outputs(workload, pipeline_dir, ops)
    samples = {"setup_s": setup, "infer_s": infer}
    samples.update((f"{stage}_s", v) for stage, v in walls.items())
    metrics = {name: statistics.median(v) for name, v in samples.items() if name != "infer_s"}
    metrics.update(
        pipeline_s=sum(statistics.median(walls[stage]) for stage in STAGES),
        train_steps_per_s=len(checked["layers"]) / p.walls["train"],
        infer_signals_per_s=rows / statistics.median(infer),
        peak_rss_mb=peak_kb / 1024.0,
        test_nmse_db=checked["test_nmse_db"],
    )
    metrics["training.steps"] = len(checked["layers"])
    record = {"samples": samples, "timings": {k: timing(v) for k, v in samples.items()}}
    return metrics, record


def stopped_layers(layers: list[int], max_iters: int) -> dict[str, int]:
    """Layers that stopped on patience and on the step budget."""
    counts = np.bincount(np.asarray(layers, dtype=int))
    budget = int(np.count_nonzero(counts[1:] >= max_iters))
    return {
        "training.layers_stopped_patience": int(np.count_nonzero(counts[1:])) - budget,
        "training.layers_stopped_budget": budget,
    }


# Counters that must repeat exactly between traced runs of one version of src/.
EXACT_STATS = ("elems", "bytes", "rows")
EXACT_NAMES = (
    "training.steps",
    "solvers.spectral_norm.calls",
    "operators.eta.calls",
    "operators.eta_jvp.calls",
    "operators.eta_dalpha.calls",
    "operators.eta_trace.calls",
)


def traced_functions(spec: dict, workload: Workload) -> list[str]:
    """Functions that must run on ``workload``: each one with a per-layer
    metric in ``spec``, and the workload's weight function."""
    named = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"] if m["name"].count(".") == 2}
    return sorted(named | {workload.weights_fn})


def traced(workload: Workload, ops: Ops, spec: dict) -> tuple[dict, dict]:
    from blockunfold import cli
    from tracer import Tracer, patched, wrapper_cost

    run_dir = WORK_DIR / workload.name
    traced_dir = run_dir / "inproc-traced"
    tracer = Tracer()
    with patched(tracer):
        walls = run_in_process(workload, traced_dir, ops)
    tracer.dump(traced_dir / "spans.npz")
    metrics = tracer.summary()
    # The outputs must repeat those of untraced runs of this src/, so
    # tracing must not change any result.
    checked = check_outputs(workload, traced_dir, ops)
    if checked is not None:
        metrics["training.steps"] = len(checked["layers"])
        max_iters = cli.read_config(workload.config).train.max_iters_per_layer
        metrics.update(stopped_layers(checked["layers"], max_iters))
    traced_s = sum(walls.values())
    metrics["trace.pipeline_s"] = traced_s
    metrics["trace.spans"] = len(tracer.starts)
    metrics["trace.overhead_est_s"] = len(tracer.starts) * wrapper_cost()
    # Time in cli.main outside the stage commands.  If patching missed a
    # stage command, that stage's time would land here.
    metrics["trace.outside_commands_share"] = metrics.get("cli.main.self_s", traced_s) / traced_s
    ops.check(
        metrics["trace.outside_commands_share"] <= COVERAGE_TOL,
        f"trace: {metrics['trace.outside_commands_share']:.1%} of stage time lies outside the stage commands",
    )
    silent = [fn for fn in traced_functions(spec, workload) if not metrics.get(f"{fn}.calls")]
    ops.check(not silent, f"trace: functions that should run were never called: {silent}")
    exact = {k: v for k, v in metrics.items() if k.split(".")[-1] in EXACT_STATS or k in EXACT_NAMES}
    ops.check(
        same_as_before(run_dir / "repeat.json", f"counters.{src_sha256()}.seed{workload.cli_seed}", exact),
        "trace: exact counters differ from an earlier traced run",
    )
    record = {"stage_s": walls, "exact_counters": exact}
    return metrics, record


# ---------------------------------------------------------------------------
# entry point


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: Workload, seed: int, trace: bool, spec: dict) -> dict:
    """One benchmark run; returns the result line and writes the record."""
    start = time.perf_counter()
    ops = Ops()
    if trace:
        metrics, record = traced(workload, ops, spec)
        wanted = spec["per_layer"]
    else:
        metrics, record = end_to_end(workload, seed, ops, start)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    ops.check(not missing, f"metrics not measured: {missing}")
    result = {
        "correct": not ops.failed,
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    record.update(
        workload=workload.name,
        config=str(workload.config.relative_to(ROOT)) if workload.config.is_relative_to(ROOT) else str(workload.config),
        cli_seed=workload.cli_seed,
        seed=seed,
        trace=int(trace),
        environment=environment(),
        metrics=metrics,
        failures=ops.failed,
        result=result,
        run_s=time.perf_counter() - start,
    )
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}-{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    return record


def print_report(record: dict, spec: dict) -> None:
    env, metrics = record["environment"], record["metrics"]
    print(
        f"workload {record['workload']} ({record['config']}, cli seed {record['cli_seed']}), "
        f"seed {record['seed']}, trace {record['trace']}"
    )
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']['name']} "
        f"{env['blas']['version']}, cpus {env['cpu_count']}, threads {env['thread_env']}, "
        f"commit {env['commit']['git'] or env['commit']['src_sha256'][:16]}"
    )
    timings = record.get("timings", {})
    for m in spec["per_layer" if record["trace"] else "end_to_end"]:
        value = metrics.get(m["name"], float("nan"))
        detail = timings.get(m["name"], "")
        print(f"  {m['name']:<42s} {value:>14.6g} {m['unit']:<6s} {m['better']:<6s} {detail}")
    if record["trace"]:
        listed = {m["name"] for m in spec["per_layer"]}
        extras = [k for k in sorted(metrics) if k.startswith("trace.") and k not in listed]
        self_s = sorted(
            ((v, k) for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 2),
            reverse=True,
        )
        print("  highest self times:")
        for value, name in self_s[:15]:
            print(f"    {name:<40s} {value:>10.4f} s  {metrics[name[:-6] + 'calls']} calls")
    else:
        extras = ["test_nmse_db", "training.steps"]
        print(f"  infer_s per forward call: {timings.get('infer_s', '')}")
    for name in extras:
        print(f"  {name:<42s} {metrics.get(name, float('nan')):>14.6g}")
    result = record["result"]
    print(f"  ops_failed / ops_attempted: {result['failed']} / {result['attempted']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    # Accepted for the driver's interface; a run's work is fixed (see above).
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    needed = [ROOT / "BENCHMARK.json", SRC / "blockunfold" / "cli.py", workload.config]
    absent = [str(p) for p in needed if not p.exists()]
    if absent:
        print(f"error: missing {', '.join(absent)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    logging.getLogger().addHandler(logging.NullHandler())
    spec = load_spec()
    record = run(workload, args.seed, bool(args.trace), spec)
    print_report(record, spec)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
